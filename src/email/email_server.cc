#include "email/email_server.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::email {

Duration EmailDelayModel::sample(Rng& rng) const {
  if (rng.chance(fast_probability)) {
    return rng.lognormal_duration(fast_median, fast_sigma);
  }
  return rng.lognormal_duration(slow_median, slow_sigma);
}

EmailServer::EmailServer(sim::Simulator& sim)
    : sim_(sim), rng_(sim.make_rng("email.server")) {}

void EmailServer::create_mailbox(const std::string& address) {
  mailboxes_.try_emplace(address);
}

bool EmailServer::has_mailbox(const std::string& address) const {
  return mailboxes_.count(address) > 0;
}

void EmailServer::register_domain_handler(
    const std::string& domain, std::function<void(const Email&)> handler) {
  domain_handlers_[to_lower(domain)] = std::move(handler);
}

namespace {
std::string domain_of(const std::string& address) {
  const auto at = address.rfind('@');
  return at == std::string::npos ? "" : to_lower(address.substr(at + 1));
}
}  // namespace

Status EmailServer::submit(Email email) {
  if (down()) {
    stats_.bump("rejected.relay_down");
    return Status::failure("email relay down");
  }
  const std::string domain = domain_of(email.to);
  const bool routable =
      domain_handlers_.count(domain) > 0 || has_mailbox(email.to);
  if (!routable) {
    stats_.bump("rejected.unroutable");
    return Status::failure("unroutable recipient " + email.to);
  }
  email.id = next_id_++;
  email.submitted_at = sim_.now();
  stats_.bump("accepted");
  if (rng_.chance(delay_.loss_probability)) {
    stats_.bump("lost");
    SIMBA_LOG_DEBUG("email", "silently lost mail to " + email.to);
    return Status::success();  // sender cannot tell; that is the point
  }
  const Duration delay = delay_.sample(rng_);
  sim_.after(
      delay, [this, email = std::move(email)]() mutable { deliver(std::move(email)); },
      "email.deliver");
  return Status::success();
}

void EmailServer::deliver(Email email) {
  email.delivered_at = sim_.now();
  const std::string domain = domain_of(email.to);
  const auto handler = domain_handlers_.find(domain);
  if (handler != domain_handlers_.end()) {
    stats_.bump("delivered.domain_handler");
    handler->second(email);
    return;
  }
  auto box = mailboxes_.find(email.to);
  if (box == mailboxes_.end()) {
    stats_.bump("delivered.mailbox_gone");
    return;
  }
  stats_.bump("delivered.mailbox");
  box->second.push_back(email);
  if (on_delivered_) on_delivered_(email.to, box->second.back());
}

const std::vector<Email>& EmailServer::mailbox(
    const std::string& address) const {
  static const std::vector<Email> kEmpty;
  const auto it = mailboxes_.find(address);
  return it == mailboxes_.end() ? kEmpty : it->second;
}

void EmailServer::restore_state(State state) {
  mailboxes_ = std::move(state.mailboxes);
  next_id_ = state.next_id;
  stats_ = std::move(state.stats);
}

}  // namespace simba::email
