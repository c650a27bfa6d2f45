#include "aladdin/remote_automation.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::aladdin {

RemoteAutomation::RemoteAutomation(sim::Simulator& sim,
                                   email::EmailServer& mail,
                                   HomeNetwork& network,
                                   std::string gateway_mailbox,
                                   std::string secret)
    : sim_(sim),
      mail_(mail),
      network_(network),
      mailbox_(std::move(gateway_mailbox)),
      secret_(std::move(secret)) {
  mail_.create_mailbox(mailbox_);
}

void RemoteAutomation::authorize(const std::string& sender_address) {
  authorized_.insert(to_lower(sender_address));
}

void RemoteAutomation::register_device(const std::string& device_id) {
  devices_.insert(device_id);
}

void RemoteAutomation::start(Duration poll_interval) {
  poll_task_.cancel();
  poll_task_ = sim_.every(poll_interval, [this] { poll(); },
                          "aladdin.automation.poll");
}

void RemoteAutomation::poll() {
  const auto& box = mail_.mailbox(mailbox_);
  while (cursor_ < box.size()) handle(box[cursor_++]);
}

void RemoteAutomation::handle(const email::Email& mail) {
  // Expected subject: ALADDIN <secret> SET <device> ON|OFF
  const auto words = split_trimmed(mail.subject, ' ');
  if (words.size() < 1 || !iequals(words[0], "ALADDIN")) {
    stats_.bump("ignored.not_a_command");
    return;
  }
  const auto [display, sender] = parse_email_from(mail.from);
  if (authorized_.count(to_lower(sender)) == 0) {
    stats_.bump("rejected.unauthorized");
    log_warn("aladdin.automation", "command from unauthorized " + sender);
    return;
  }
  if (words.size() != 5 || !iequals(words[2], "SET")) {
    stats_.bump("rejected.malformed");
    confirm(mail.from, "Could not parse command: " + mail.subject);
    return;
  }
  if (words[1] != secret_) {
    stats_.bump("rejected.bad_secret");
    log_warn("aladdin.automation", "bad secret from " + sender);
    return;
  }
  const std::string& device = words[3];
  if (devices_.count(device) == 0) {
    stats_.bump("rejected.unknown_device");
    confirm(mail.from, "No such device: " + device);
    return;
  }
  const bool on = iequals(words[4], "ON");
  if (!on && !iequals(words[4], "OFF")) {
    stats_.bump("rejected.malformed");
    confirm(mail.from, "Bad state (want ON or OFF): " + words[4]);
    return;
  }
  stats_.bump("accepted");
  SIMBA_LOG_INFO("aladdin.automation",
                 "actuating " + device + (on ? " ON" : " OFF"));
  // The command module rides the powerline, like everything in-home.
  HomeSignal frame;
  frame.source_id = device;
  frame.payload = on ? "ON" : "OFF";
  frame.medium = Medium::kPowerline;
  network_.transmit(std::move(frame));
  if (on_actuate_) on_actuate_(device, on);
  confirm(mail.from,
          "Done: " + device + " is now " + (on ? "ON" : "OFF") + ".");
}

void RemoteAutomation::confirm(const std::string& to,
                               const std::string& body) {
  email::Email reply;
  reply.from = mailbox_;
  reply.to = parse_email_from(to).second;
  reply.subject = "Aladdin home automation";
  reply.body = body;
  if (mail_.submit(std::move(reply)).ok()) stats_.bump("confirmations");
}

}  // namespace simba::aladdin
