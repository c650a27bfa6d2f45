#include "core/source_endpoint.h"

#include "util/log.h"

namespace simba::core {
namespace {

// Timeout for the e-mail block, the fallback after the IM block.
constexpr Duration kEmailBlockTimeout = seconds(30);

}  // namespace

SourceEndpoint::SourceEndpoint(sim::Simulator& sim, net::MessageBus& bus,
                               im::ImServer& im_server,
                               email::EmailServer& email_server,
                               SourceEndpointOptions options)
    : sim_(sim),
      im_server_(im_server),
      email_server_(email_server),
      options_(std::move(options)),
      desktop_(sim) {
  if (options_.im_account.empty()) options_.im_account = options_.name;
  if (options_.email_address.empty()) {
    options_.email_address = options_.name + "@svc.example.net";
  }
  im_server_.register_account(options_.im_account);
  email_server_.create_mailbox(options_.email_address);
  im_client_ = std::make_unique<im::ImClientApp>(
      sim_, desktop_, bus, im_server_.address(), options_.im_account,
      options_.im_client_profile, im::ImClientConfig{});
  email_client_ = std::make_unique<email::EmailClientApp>(
      sim_, desktop_, email_server_, options_.email_address,
      options_.email_client_profile, email::EmailClientConfig{});
  im_manager_ =
      std::make_unique<automation::ImManager>(sim_, desktop_, *im_client_);
  email_manager_ = std::make_unique<automation::EmailManager>(sim_, desktop_,
                                                              *email_client_);
  engine_ = std::make_unique<DeliveryEngine>(sim_, im_manager_.get(),
                                             email_manager_.get());
}

void SourceEndpoint::start() {
  im_manager_->start();
  email_manager_->start();
  // Acks from the buddy arrive as IMs; route them into the engine.
  im_manager_->set_on_new_message([this] { pump_im(); });
  // Periodic sanity keeps the source's client signed in (sources run
  // the same SIMBA library, so they get the same protection).
  sanity_task_ = sim_.every(
      minutes(1),
      [this] {
        im_manager_->sanity_check();
        email_manager_->sanity_check();
        pump_im();  // sweep for acks whose events were lost
      },
      "source.sanity");
}

void SourceEndpoint::set_target(const std::string& target_im,
                                const std::string& target_email) {
  target_ = AddressBook("target");
  target_.put(Address{"Buddy IM", CommType::kIm, target_im, true});
  target_.put(Address{"Buddy email", CommType::kEmail, target_email, true});
  mode_ = DeliveryMode("im-ack-then-email");
  DeliveryBlock& im_block = mode_.add_block(options_.im_block_timeout);
  im_block.actions.push_back(DeliveryAction{"Buddy IM", /*require_ack=*/true});
  DeliveryBlock& email_block = mode_.add_block(kEmailBlockTimeout);
  email_block.actions.push_back(DeliveryAction{"Buddy email", false});
}

void SourceEndpoint::send_alert(const Alert& alert,
                                DeliveryEngine::DoneCallback done) {
  if (mode_.empty()) {
    log_warn("source." + options_.name, "no target configured; alert dropped");
    stats_.bump("alerts_dropped_no_target");
    if (done) {
      DeliveryOutcome outcome;
      outcome.detail = "no target";
      done(outcome);
    }
    return;
  }
  stats_.bump("alerts_sent");
  engine_->deliver(alert, target_, mode_,
                   [this, done = std::move(done)](const DeliveryOutcome& o) {
                     stats_.bump(o.delivered
                                     ? CounterName("alerts_delivered")
                                     : CounterName("alerts_undeliverable"));
                     if (done) done(o);
                   });
}

AlertSink SourceEndpoint::sink() {
  return [this](const Alert& alert) { send_alert(alert); };
}

void SourceEndpoint::pump_im() {
  for (const auto& message : im_manager_->fetch_unread_safe()) {
    if (!engine_->handle_incoming(message)) stats_.bump("im.ignored");
  }
}

}  // namespace simba::core
