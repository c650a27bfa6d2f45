#include "core/user_endpoint.h"

#include "core/delivery_engine.h"

#include "util/log.h"

namespace simba::core {

UserEndpoint::UserEndpoint(sim::Simulator& sim, net::MessageBus& bus,
                           im::ImServer& im_server,
                           email::EmailServer& email_server,
                           sms::SmsGateway& sms_gateway,
                           UserEndpointOptions options)
    : sim_(sim),
      im_server_(im_server),
      email_server_(email_server),
      gateway_(sms_gateway),
      options_(std::move(options)),
      rng_(sim.make_rng("user." + options_.name)),
      desktop_(sim) {
  if (options_.im_account.empty()) options_.im_account = options_.name;
  if (options_.phone_number.empty()) options_.phone_number = "4255550100";
  if (options_.email_account.empty()) {
    options_.email_account = options_.name + "@home.example.net";
  }
  im_server_.register_account(options_.im_account);
  email_server_.create_mailbox(options_.email_account);
  // The user's own IM client is modeled fault-free: the experiments
  // study the buddy's dependability, not the user's laptop.
  im_client_ = std::make_unique<im::ImClientApp>(
      sim_, desktop_, bus, im_server_.address(), options_.im_account,
      gui::FaultProfile{}, im::ImClientConfig{});
  phone_ = std::make_unique<sms::Phone>(sim_, options_.phone_number);
  phone_->set_outage_plan(options_.phone_outage_plan);
  gateway_.register_phone(*phone_);
}

void UserEndpoint::start() {
  im_client_->launch();
  im_client_->set_new_message_event([this] { pump_im(); });
  enforce_im_presence();
  presence_task_ = sim_.every(seconds(20), [this] { enforce_im_presence(); },
                              "user.presence");
  email_task_ = sim_.every(options_.email_check_interval,
                           [this] { check_email(); }, "user.email_check");
  phone_->set_on_receive([this](const sms::SmsMessage& message) {
    const auto id = message.headers.find("alert_id");
    if (id == message.headers.end()) return;
    // The phone beeps wherever the user is.
    record(id->second, "sms", sim_.now());
  });
}

void UserEndpoint::enforce_im_presence() {
  const bool should_be_online =
      !options_.im_offline_plan.down_at(sim_.now());
  if (should_be_online && !im_client_->is_logged_in()) {
    im_client_->login(nullptr);
  } else if (!should_be_online && im_client_->is_logged_in()) {
    im_client_->logout();
  } else if (should_be_online) {
    // The session may have been dropped server-side (outage); pinging
    // corrects the client's stale belief so the next tick re-logins.
    im_client_->verify_connection(nullptr);
  }
}

void UserEndpoint::pump_im() {
  for (const auto& message : im_client_->fetch_unread()) {
    const auto id = message.headers.find("alert_id");
    if (id == message.headers.end()) {
      stats_.bump("im.non_alert");
      continue;
    }
    if (at_desk()) {
      record(id->second, "im", sim_.now());
      maybe_ack(message, sim_.now());
    } else {
      // The IM pops up on screen; the user sees it when she returns.
      const TimePoint back = options_.away_plan.up_again_at(sim_.now());
      stats_.bump("im.seen_on_return");
      sim_.at(
          back,
          [this, message, id_value = id->second, back] {
            record(id_value, "im", back);
            maybe_ack(message, back);
          },
          "user.im_on_return");
    }
  }
}

void UserEndpoint::maybe_ack(const im::ImMessage& message, TimePoint) {
  if (message.headers.count(wire::kRequiresAck) == 0) return;
  const auto id = message.headers.find("alert_id");
  if (id == message.headers.end()) return;
  const Duration reaction =
      rng_.exponential_duration(options_.ack_reaction_mean);
  sim_.after(
      reaction,
      [this, from = message.from_user, alert_id = id->second] {
        util::FlatMap<std::string, std::string> headers;
        headers[wire::kKind] = wire::kKindAck;
        headers[wire::kAckFor] = alert_id;
        try {
          im_client_->send_im(from, "ACK " + alert_id, std::move(headers),
                              [this](Status status) {
                                if (!status.ok()) stats_.bump("acks.send_failed");
                              });
          stats_.bump("acks.sent");
        } catch (const gui::AutomationError&) {
          stats_.bump("acks.send_failed");
        }
      },
      "user.ack");
}

void UserEndpoint::check_email() {
  if (!at_desk()) return;  // she is not reading mail
  const auto& box = email_server_.mailbox(options_.email_account);
  while (email_cursor_ < box.size()) {
    const email::Email& mail = box[email_cursor_++];
    const auto id = mail.headers.find("alert_id");
    if (id != mail.headers.end()) {
      record(id->second, "email", sim_.now());
    } else {
      stats_.bump("email.non_alert");
    }
  }
}

void UserEndpoint::record(const std::string& alert_id,
                          const std::string& channel, TimePoint at) {
  auto& sighting = seen_[alert_id];
  sighting.count++;
  if (sighting.count == 1) {
    sighting.first = at;
    sighting.channel = channel;
    stats_.bump("alerts_seen");
    stats_.add("seen_via_" + channel);
  } else {
    // "We use timestamps to allow the user to detect and discard
    // duplicates."
    stats_.bump("duplicates_discarded");
  }
  if (sighting_observer_) sighting_observer_(alert_id, channel, at);
}

std::optional<TimePoint> UserEndpoint::first_seen(
    const std::string& alert_id) const {
  const auto it = seen_.find(alert_id);
  if (it == seen_.end()) return std::nullopt;
  return it->second.first;
}

std::optional<std::string> UserEndpoint::first_seen_channel(
    const std::string& alert_id) const {
  const auto it = seen_.find(alert_id);
  if (it == seen_.end()) return std::nullopt;
  return it->second.channel;
}

int UserEndpoint::sightings(const std::string& alert_id) const {
  const auto it = seen_.find(alert_id);
  return it == seen_.end() ? 0 : it->second.count;
}

UserEndpoint::State UserEndpoint::save_state() const {
  State state;
  state.sightings.reserve(seen_.size());
  for (const auto& [alert_id, sighting] : seen_.sorted_items()) {
    state.sightings.push_back(
        SightingState{alert_id, sighting.first, sighting.channel,
                      sighting.count});
  }
  state.email_cursor = email_cursor_;
  state.stats = stats_;
  return state;
}

void UserEndpoint::restore_state(State state) {
  seen_.clear();
  for (SightingState& s : state.sightings) {
    seen_[s.alert_id] = Sighting{s.first, std::move(s.channel), s.count};
  }
  email_cursor_ = static_cast<std::size_t>(state.email_cursor);
  stats_ = std::move(state.stats);
}

}  // namespace simba::core
