// Delivery modes (Sections 3.2, 4.1) — SIMBA's abstraction for
// personalized dependability levels.
//
// "An XML document for a delivery mode contains one or more
// communication blocks, each of which contains one or more actions.
// Each action maps to the friendly name of an address." Blocks are
// ordered fallback stages: a block's actions are attempted together; if
// the block fails (no action succeeds — disabled addresses, offline
// recipients, missing acknowledgements — within its timeout), delivery
// falls back to the next block. Figure 4's two-block sample document is
// reproduced by sample_urgent_mode() below and round-tripped in tests.
#pragma once

#include <string>
#include <vector>

#include "util/result.h"
#include "xml/xml.h"
#include "util/time.h"

namespace simba::core {

struct DeliveryAction {
  /// Friendly name of an address in the user's AddressBook.
  std::string address_name;
  /// For IM actions: require an application-level acknowledgement from
  /// the receiving side before the action counts as delivered.
  bool require_ack = false;
};

struct DeliveryBlock {
  /// How long the block may wait for a success (acks included) before
  /// falling back to the next block.
  Duration timeout = seconds(30);
  std::vector<DeliveryAction> actions;
};

class DeliveryMode {
 public:
  DeliveryMode() = default;
  explicit DeliveryMode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  DeliveryBlock& add_block(Duration timeout = seconds(30));
  const std::vector<DeliveryBlock>& blocks() const { return blocks_; }
  bool empty() const { return blocks_.empty(); }

  /// XML round trip. Timeouts serialize as whole seconds.
  std::string to_xml() const;
  static Result<DeliveryMode> from_xml(const std::string& xml_text);
  /// Element-level forms for embedding (core/config_xml.h).
  void append_to(xml::Element& parent) const;
  static Result<DeliveryMode> from_element(const xml::Element& element);

  /// The paper's Figure 4 document: block 1 = IM with ack then SMS;
  /// block 2 = two email fallbacks.
  static DeliveryMode sample_urgent_mode();

 private:
  std::string name_;
  std::vector<DeliveryBlock> blocks_;
};

}  // namespace simba::core
