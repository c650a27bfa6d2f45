#include "proxy/proxy.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::proxy {

WebDirectory::WebDirectory(sim::Simulator& sim) : sim_(sim) {}

void WebDirectory::put(const std::string& url, std::string content) {
  pages_[url] = std::move(content);
}

void WebDirectory::put_at(TimePoint when, const std::string& url,
                          std::string content) {
  sim_.at(
      when,
      [this, url, content = std::move(content)]() mutable {
        pages_[url] = std::move(content);
      },
      "web.mutate");
}

bool WebDirectory::exists(const std::string& url) const {
  return pages_.count(url) > 0;
}

std::optional<std::string> WebDirectory::get(const std::string& url) const {
  const auto it = pages_.find(url);
  if (it == pages_.end()) return std::nullopt;
  return it->second;
}

Duration WebDirectory::sample_fetch_latency(Rng& rng) const {
  return millis(120) + rng.exponential_duration(millis(250));
}

std::optional<std::string> extract_block(const std::string& content,
                                         const std::string& start_keyword,
                                         const std::string& end_keyword) {
  const std::size_t start = content.find(start_keyword);
  if (start == std::string::npos) return std::nullopt;
  const std::size_t block_begin = start + start_keyword.size();
  const std::size_t end = content.find(end_keyword, block_begin);
  if (end == std::string::npos) return std::nullopt;
  return std::string(trim(content.substr(block_begin, end - block_begin)));
}

AlertProxy::AlertProxy(sim::Simulator& sim, WebDirectory& web)
    : sim_(sim), web_(web), rng_(sim.make_rng("alert.proxy")) {}

AlertProxy::WatchId AlertProxy::add_watch(WatchConfig config,
                                          core::AlertSink sink) {
  const WatchId id = next_watch_++;
  Watch watch;
  watch.id = id;
  watch.config = std::move(config);
  watch.sink = std::move(sink);
  watch.poll_task = sim_.every(
      watch.config.poll_interval, [this, id] { poll(id); },
      "proxy.poll",
      /*immediate=*/true);
  watches_.emplace(id, std::move(watch));
  return id;
}

void AlertProxy::remove_watch(WatchId id) {
  const auto it = watches_.find(id);
  if (it == watches_.end()) return;
  it->second.poll_task.cancel();
  watches_.erase(it);
}

void AlertProxy::poll(WatchId id) {
  const auto it = watches_.find(id);
  if (it == watches_.end()) return;
  stats_.bump("polls");
  if (rng_.chance(web_.fetch_failure_probability())) {
    stats_.bump("fetch_failures");
    return;  // transient; next poll retries
  }
  // The HTTP fetch takes time; compare and alert at response time.
  const Duration latency = web_.sample_fetch_latency(rng_);
  sim_.after(
      latency,
      [this, id] {
        const auto wit = watches_.find(id);
        if (wit == watches_.end()) return;
        Watch& w = wit->second;
        const auto content = web_.get(w.config.url);
        if (!content) {
          stats_.bump("fetch_404");
          return;
        }
        auto block = extract_block(*content, w.config.start_keyword,
                                   w.config.end_keyword);
        if (!block) {
          stats_.bump("block_not_found");
          return;
        }
        const bool first_sight = !w.last_block.has_value();
        const bool changed = !first_sight && *w.last_block != *block;
        w.last_block = block;
        // The first successful poll only establishes the baseline.
        if (!changed) return;
        core::Alert alert;
        alert.source = w.config.source_name;
        alert.native_category = w.config.category;
        alert.subject = w.config.category + " changed at " + w.config.url;
        alert.body = *block;
        alert.high_importance = w.config.high_importance;
        alert.created_at = sim_.now();
        alert.id = strformat("proxy-%llu",
                             static_cast<unsigned long long>(next_alert_++));
        alert.attributes["url"] = w.config.url;
        stats_.bump("alerts_generated");
        SIMBA_LOG_INFO("proxy", "change detected at " + w.config.url);
        if (w.sink) w.sink(alert);
      },
      "proxy.fetch");
}

}  // namespace simba::proxy
