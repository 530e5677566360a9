#include "fault/injector.hpp"

#include <algorithm>

#include "obs/export.hpp"

namespace envmon::fault {

namespace {

// Stable 64-bit FNV-1a so a site's RNG stream depends only on (seed,
// name), never on schedule or intercept order.
std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Injector::Injector(sim::Engine& engine, std::uint64_t seed)
    : engine_(&engine), seed_(seed) {}

Injector::Site& Injector::site(std::string_view name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    it = sites_.try_emplace(std::string(name)).first;
    it->second.rng.reseed(seed_ ^ hash_name(name));
    if (obs::enabled()) {
      it->second.injected_metric = &obs::default_registry().counter(
          "envmon_fault_injected_total", "Faults injected into backend-facing surfaces",
          obs::label("site", name));
    }
  }
  return it->second;
}

void Injector::fail_next(std::string_view s, StatusCode code, std::string message,
                         int count) {
  Site& st = site(s);
  st.fail_next += count;
  st.fail_next_code = code;
  st.fail_next_message = std::move(message);
}

void Injector::fail_between(std::string_view s, sim::SimTime from, sim::SimTime to,
                            StatusCode code, std::string message) {
  site(s).failures.push_back(FailWindow{from, to, code, std::move(message), 1.0});
}

void Injector::kill_at(std::string_view s, sim::SimTime at, std::string message) {
  Site& st = site(s);
  st.kill_time = at;
  st.kill_message = std::move(message);
}

void Injector::revive_at(std::string_view s, sim::SimTime at) { site(s).revive_time = at; }

void Injector::flap_between(std::string_view s, sim::SimTime from, sim::SimTime to,
                            double fail_probability, StatusCode code, std::string message) {
  site(s).failures.push_back(
      FailWindow{from, to, code, std::move(message), std::clamp(fail_probability, 0.0, 1.0)});
}

void Injector::delay_between(std::string_view s, sim::SimTime from, sim::SimTime to,
                             sim::Duration extra) {
  site(s).delays.push_back(DelayWindow{from, to, extra});
}

void Injector::corrupt_between(std::string_view s, sim::SimTime from, sim::SimTime to,
                               double scale, double offset) {
  site(s).corruptions.push_back(CorruptWindow{from, to, scale, offset});
}

void Injector::note_injection(Site& s, std::string_view name, std::string_view what) {
  ++s.injected;
  ++injected_total_;
  if (s.injected_metric != nullptr) s.injected_metric->inc();
  if (recorder_ != nullptr) {
    recorder_->record(engine_->now(), recorder_node_, "fault", "fault.inject",
                      std::string(name) + ": " + std::string(what));
  }
}

Outcome Injector::intercept(std::string_view name) {
  // Sites with nothing scheduled stay clean, but still count their
  // traffic — intercepts() is how tests prove a hook is actually wired.
  Site& s = site(name);
  ++s.intercepts;
  const sim::SimTime now = engine_->now();

  Outcome out;
  for (const DelayWindow& w : s.delays) {
    if (now >= w.from && now < w.to) out.extra_latency += w.extra;
  }

  // Failure rules, strongest claim first.
  const bool killed = s.kill_time && now >= *s.kill_time &&
                      !(s.revive_time && now >= *s.revive_time);
  if (killed) {
    out.status = Status::unavailable(s.kill_message);
    note_injection(s, name, "kill");
  } else if (s.fail_next > 0) {
    --s.fail_next;
    out.status = Status(s.fail_next_code, s.fail_next_message);
    note_injection(s, name, "transient");
  } else {
    for (const FailWindow& w : s.failures) {
      if (now < w.from || now >= w.to) continue;
      // Flap windows draw; scheduled windows always fire.  The draw is
      // consumed only for operations inside the window, so schedules on
      // other sites never perturb this stream.
      if (w.probability >= 1.0 || s.rng.uniform() < w.probability) {
        out.status = Status(w.code, w.message);
        note_injection(s, name, w.probability >= 1.0 ? "window" : "flap");
        break;
      }
    }
  }

  if (out.status.is_ok()) {
    for (const CorruptWindow& w : s.corruptions) {
      if (now >= w.from && now < w.to) {
        out.corrupted = true;
        out.scale *= w.scale;
        out.offset = out.offset * w.scale + w.offset;
      }
    }
    if (out.corrupted) note_injection(s, name, "corrupt");
  }
  if (out.status.is_ok() && !out.corrupted && out.extra_latency.ns() > 0) {
    note_injection(s, name, "delay");
  }
  return out;
}

std::uint64_t Injector::intercepts(std::string_view name) const {
  const auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.intercepts;
}

std::uint64_t Injector::injected(std::string_view name) const {
  const auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.injected;
}

}  // namespace envmon::fault
