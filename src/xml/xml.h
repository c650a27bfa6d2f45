// Minimal XML document model, parser, and writer — built from scratch
// because the paper expresses both user address books and delivery-mode
// documents as XML "to allow extensibility for accommodating new
// communication addresses" (Section 4.1).
//
// Supported: elements, attributes (single or double quoted), text
// content with entity escaping (&lt; &gt; &amp; &quot; &apos; and
// numeric &#...;), comments, XML declarations, self-closing tags,
// UTF-8 pass-through. Not supported (not needed): DTDs, namespaces,
// processing instructions beyond the declaration, CDATA.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace simba::xml {

/// One element node. Children are owned; text interleaved between child
/// elements is concatenated into `text` (mixed content is rare in
/// SIMBA documents and order against children is not preserved).
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // -- Attributes ---------------------------------------------------------
  /// Returns the attribute value or nullopt.
  std::optional<std::string> attr(std::string_view name) const;
  /// Returns the attribute value or `fallback`.
  std::string attr_or(std::string_view name, std::string fallback) const;
  void set_attr(std::string name, std::string value);
  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  // -- Text ---------------------------------------------------------------
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // -- Children -----------------------------------------------------------
  Element& add_child(std::string name);
  /// First child with the given element name, or nullptr.
  const Element* child(std::string_view name) const;
  Element* child(std::string_view name);
  /// All children with the given element name.
  std::vector<const Element*> children(std::string_view name) const;
  const std::vector<std::unique_ptr<Element>>& children() const {
    return children_;
  }
  /// Mutable child list; used by the parser to adopt parsed subtrees.
  std::vector<std::unique_ptr<Element>>& children_mutable() {
    return children_;
  }

  /// Text of the first child with the given name, or `fallback`.
  std::string child_text(std::string_view name, std::string fallback = "") const;

  /// Serializes this element (and subtree) as XML. `indent` < 0 means
  /// compact single-line output.
  std::string serialize(int indent = 2) const;

 private:
  void serialize_into(std::string& out, int indent, int depth) const;

  std::string name_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::string text_;
  std::vector<std::unique_ptr<Element>> children_;
};

/// A parsed document: a single root element.
class Document {
 public:
  explicit Document(std::unique_ptr<Element> root) : root_(std::move(root)) {}
  const Element& root() const { return *root_; }
  Element& root() { return *root_; }
  std::string serialize(int indent = 2) const { return root_->serialize(indent); }

 private:
  std::unique_ptr<Element> root_;
};

/// Parses an XML document. On failure the error message includes the
/// 1-based line and column of the offending input.
Result<Document> parse(std::string_view input);

/// Escapes text for use as XML character data / attribute values.
std::string escape(std::string_view text);

}  // namespace simba::xml
