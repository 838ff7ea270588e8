#include "net/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/fleet.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

namespace wire = run::wire;
using Clock = AgentFleet::Clock;

void bump(const char* name) {
  if (!obs::counters_enabled()) return;
  obs::Registry::global().counter(name).add();
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

Clock::time_point after(Clock::time_point now, double seconds) {
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

std::string decode_reason(const std::vector<std::uint8_t>& body,
                          const char* fallback) {
  try {
    return wire::decode_error(body);
  } catch (const Error&) {
    return fallback;
  }
}

}  // namespace

int poll_timeout_ms(Clock::time_point now,
                    std::optional<Clock::time_point> wake) {
  if (!wake) return 60000;
  const double sec = std::chrono::duration<double>(*wake - now).count();
  if (sec <= 0.0) return 0;
  const double ms = std::ceil(sec * 1000.0);
  return ms > 60000.0 ? 60000 : static_cast<int>(ms);
}

AgentFleet::AgentFleet(std::vector<HostPort> agents, const FleetTiming& timing,
                       std::string auth_token, FleetOwner& owner)
    : timing_(timing), auth_token_(std::move(auth_token)), owner_(owner) {
  agents_.resize(agents.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i].addr = std::move(agents[i]);
  }
}

void AgentFleet::start(Clock::time_point now) {
  for (Agent& a : agents_) {
    a.retry_at = now;  // connect immediately
    a.backoff_seconds = timing_.reconnect_initial_seconds;
  }
}

// ---- connection lifecycle -----------------------------------------------

void AgentFleet::advance(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state == Agent::State::kBackoff && now >= a.retry_at) {
      start_connect(i, now);
    } else if ((a.state == Agent::State::kConnecting ||
                a.state == Agent::State::kHandshaking) &&
               now >= a.connect_deadline) {
      connect_failure(i,
                      a.state == Agent::State::kConnecting
                          ? "connect timed out"
                          : "handshake timed out",
                      now);
    }
  }
}

void AgentFleet::start_connect(std::size_t index, Clock::time_point now) {
  Agent& a = agents_[index];
  std::string error;
  Fd fd = connect_tcp_start(a.addr, error);
  if (!fd.valid()) {
    connect_failure(index, error, now);
    return;
  }
  a.conn.emplace(std::move(fd));
  a.state = Agent::State::kConnecting;
  a.connect_deadline = after(now, timing_.connect_timeout_seconds);
}

void AgentFleet::on_connect_writable(std::size_t index,
                                     Clock::time_point now) {
  Agent& a = agents_[index];
  std::string error;
  if (!connect_tcp_finish(a.conn->fd(), error)) {
    connect_failure(index, error, now);
    return;
  }
  Hello hello;
  hello.protocol = kNetProtocolVersion;
  hello.token = auth_token_;
  if (telemetry_ != nullptr) hello.flags |= kHelloFlagTelemetry;
  a.hello_sent = now;
  if (!a.conn->send(wire::encode_frame(wire::FrameType::kHello, 0, 0,
                                       encode_hello(hello)))) {
    connect_failure(index, "send failed during handshake", now);
    return;
  }
  a.state = Agent::State::kHandshaking;  // connect_deadline still armed
}

void AgentFleet::on_welcome(std::size_t index, const Welcome& welcome,
                            Clock::time_point now) {
  Agent& a = agents_[index];
  if (welcome.protocol != kNetProtocolVersion) {
    abandon(index, "protocol version mismatch (coordinator=" +
                       std::to_string(kNetProtocolVersion) +
                       ", agent=" + std::to_string(welcome.protocol) + ")");
    return;
  }
  if (welcome.steady_nanos != 0) {
    // NTP-style one-shot offset estimate: assume the agent sampled its
    // clock at the midpoint of the hello->welcome round trip. Good to
    // ~RTT/2, plenty for aligning millisecond-scale simulate spans.
    const Clock::time_point midpoint = a.hello_sent + (now - a.hello_sent) / 2;
    const std::int64_t local_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            midpoint.time_since_epoch())
            .count();
    a.clock_offset_nanos =
        local_nanos - static_cast<std::int64_t>(welcome.steady_nanos);
  }
  a.state = Agent::State::kReady;
  a.slots.assign(std::max<std::uint32_t>(1, welcome.slots), run::Endpoint{});
  a.connected_at = now;
  a.backoff_seconds = timing_.reconnect_initial_seconds;
  a.connect_failures = 0;
  a.ping_seq = 0;
  a.pings_unanswered = 0;
  a.last_pong = now;
  a.ever_ponged = true;
  a.next_ping = after(now, timing_.heartbeat_interval_seconds);
  bump("net.connects");
  if (a.ever_connected) bump("net.reconnects");
  a.ever_connected = true;
  peak_ready_slots_ = std::max(peak_ready_slots_, ready_slots());
  obs::log_debug("net.fleet", "agent ready",
                 {{"addr", a.addr.text()}, {"slots", a.slots.size()}});
}

/// A connect attempt failed before the handshake completed: back off, or
/// abandon the agent when the owner has given up on it.
void AgentFleet::connect_failure(std::size_t index, const std::string& error,
                                 Clock::time_point now) {
  Agent& a = agents_[index];
  a.conn.reset();
  a.last_error = error;
  ++a.connect_failures;
  if (!owner_.keep_connecting(index, a.connect_failures)) {
    abandon(index, error);
    return;
  }
  retry_later(a, now);
}

/// Permanent: the agent rejected us, or the owner gave up on it. Only
/// reached before a handshake completes, so no slot holds a task.
void AgentFleet::abandon(std::size_t index, const std::string& error) {
  Agent& a = agents_[index];
  obs::log_error("net.fleet", "abandoning agent",
                 {{"addr", a.addr.text()}, {"reason", error}});
  a.conn.reset();
  a.last_error = error;
  a.state = Agent::State::kAbandoned;
}

/// An established connection died of `what`: requeue every in-flight
/// attempt with the reason "agent <addr>: <what>" and schedule a
/// reconnect. Throws whatever the owner's on_requeue throws (an exhausted
/// attempt budget).
void AgentFleet::connection_lost(std::size_t index, const std::string& what,
                                 Clock::time_point now) {
  Agent& a = agents_[index];
  const std::string reason = "agent " + a.addr.text() + ": " + what;
  obs::log_debug("net.fleet", "agent connection lost",
                 {{"addr", a.addr.text()}, {"reason", reason}});
  emit_connection_span(index, now);
  a.conn.reset();
  a.last_error = reason;
  bump("net.disconnects");
  retry_later(a, now);
  const std::vector<run::Endpoint> slots = std::move(a.slots);
  a.slots.clear();
  for (const run::Endpoint& ep : slots) {
    if (!ep.busy()) continue;
    bump("net.cells_requeued");
    owner_.on_requeue(ep.task, reason, now);  // may throw
  }
}

void AgentFleet::retry_later(Agent& a, Clock::time_point now) {
  a.state = Agent::State::kBackoff;
  a.retry_at = after(now, a.backoff_seconds);
  a.backoff_seconds =
      std::min(timing_.reconnect_max_seconds, a.backoff_seconds * 2.0);
}

void AgentFleet::emit_connection_span(std::size_t index,
                                      Clock::time_point now) {
  const Agent& a = agents_[index];
  if (a.state != Agent::State::kReady || tracer_ == nullptr ||
      !tracer_->enabled()) {
    return;
  }
  tracer_->complete_span("agent:" + a.addr.text(), "net", a.connected_at, now,
                         kAgentTrackBase + static_cast<std::uint32_t>(index));
}

void AgentFleet::close_all(Clock::time_point now) noexcept {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    emit_connection_span(i, now);
    agents_[i].conn.reset();
  }
}

// ---- dispatch and poll --------------------------------------------------

void AgentFleet::dispatch(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady) continue;
    for (run::Endpoint& ep : a.slots) {
      if (ep.busy()) continue;
      FleetOwner::Job job;
      if (!owner_.claim(now, job)) return;  // nothing dispatchable now
      ep.begin(job.task, job.attempt, now, timing_.task_timeout_seconds);
      if (!a.conn->send(wire::encode_frame(
              wire::FrameType::kJob, static_cast<std::uint32_t>(job.task),
              job.attempt, *job.payload))) {
        connection_lost(i, "send failed (connection lost)", now);
        break;  // a.slots is gone; next agent
      }
    }
  }
}

void AgentFleet::add_poll_fds(std::vector<struct pollfd>& fds) {
  poll_base_ = fds.size();
  poll_agents_.clear();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const Agent& a = agents_[i];
    if (a.state == Agent::State::kConnecting) {
      fds.push_back({a.conn->fd(), POLLOUT, 0});
    } else if (a.connected()) {
      const short events =
          static_cast<short>(POLLIN | (a.conn->wants_write() ? POLLOUT : 0));
      fds.push_back({a.conn->fd(), events, 0});
    } else {
      continue;
    }
    poll_agents_.push_back(i);
  }
}

void AgentFleet::on_poll(const struct pollfd* fds) {
  for (std::size_t k = 0; k < poll_agents_.size(); ++k) {
    const short revents = fds[poll_base_ + k].revents;
    if (revents == 0) continue;
    const std::size_t i = poll_agents_[k];
    Agent& a = agents_[i];
    const Clock::time_point now = Clock::now();
    if (a.state == Agent::State::kConnecting) {
      if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
        on_connect_writable(i, now);
      }
      continue;
    }
    if (!a.connected()) continue;  // state changed by an earlier event
    if ((revents & POLLOUT) != 0 && !a.conn->flush()) {
      connection_lost(i, "send failed (connection lost)", now);
      continue;
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) on_readable(i, now);
  }
}

std::optional<Clock::time_point> AgentFleet::next_wakeup() const {
  std::optional<Clock::time_point> nearest;
  const auto consider = [&](Clock::time_point tp) {
    if (!nearest || tp < *nearest) nearest = tp;
  };
  for (const Agent& a : agents_) {
    switch (a.state) {
      case Agent::State::kBackoff:
        consider(a.retry_at);
        break;
      case Agent::State::kConnecting:
      case Agent::State::kHandshaking:
        consider(a.connect_deadline);
        break;
      case Agent::State::kReady:
        consider(a.next_ping);
        for (const run::Endpoint& ep : a.slots) {
          if (ep.busy() && ep.has_deadline) consider(ep.deadline);
        }
        break;
      case Agent::State::kAbandoned:
        break;
    }
  }
  return nearest;
}

// ---- timers -------------------------------------------------------------

void AgentFleet::check_timers(Clock::time_point now) {
  check_task_deadlines(now);
  check_heartbeats(now);
}

void AgentFleet::check_task_deadlines(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady) continue;
    bool expired = false;
    for (run::Endpoint& ep : a.slots) {
      if (!ep.deadline_expired(now)) continue;
      expired = true;
      // The timed-out cell gets its own diagnosis; the connection reset
      // below requeues its siblings with a collateral reason.
      const std::size_t task = ep.task;
      ep.clear();
      bump("net.cells_requeued");
      owner_.on_requeue(task,
                        "timed out after " +
                            format_seconds(timing_.task_timeout_seconds) +
                            "s on agent " + a.addr.text(),
                        now);
    }
    if (expired) {
      // A cell can't be killed remotely: retire the whole connection
      // (the agent drops orphaned results on EOF) and reconnect.
      connection_lost(i, "connection reset after a task timeout", now);
    }
  }
}

void AgentFleet::check_heartbeats(Clock::time_point now) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != Agent::State::kReady || now < a.next_ping) continue;
    if (a.pings_unanswered >= timing_.heartbeat_misses) {
      connection_lost(
          i,
          "missed " + std::to_string(a.pings_unanswered) +
              " heartbeats (last heartbeat " +
              format_seconds(
                  std::chrono::duration<double>(now - a.last_pong).count()) +
              "s ago)",
          now);
      continue;
    }
    if (a.pings_unanswered > 0) bump("net.heartbeats_missed");
    if (!a.conn->send(wire::encode_frame(wire::FrameType::kPing, a.ping_seq++,
                                         0, {}))) {
      connection_lost(i, "send failed (connection lost)", now);
      continue;
    }
    ++a.pings_unanswered;
    a.next_ping = after(now, timing_.heartbeat_interval_seconds);
  }
}

// ---- inbound frames -----------------------------------------------------

void AgentFleet::on_readable(std::size_t index, Clock::time_point now) {
  Agent& a = agents_[index];
  const FrameConn::ReadStatus status = a.conn->fill();
  if (status == FrameConn::ReadStatus::kError) {
    connection_lost(
        index, "read failed (" + std::string(std::strerror(errno)) + ")",
        now);
    return;
  }
  process_frames(index, now);
  if (!a.connected()) return;  // a frame retired the connection
  if (status == FrameConn::ReadStatus::kClosed) {
    if (a.state == Agent::State::kHandshaking) {
      // Rejected during handshake with no kError frame — a failed
      // connect (the owner may count it against a connect budget).
      connect_failure(index, "agent closed connection during handshake",
                      now);
    } else {
      connection_lost(index,
                      std::string("closed connection") +
                          (a.conn->frames().mid_frame() ? " mid-frame" : ""),
                      now);
    }
  }
}

void AgentFleet::process_frames(std::size_t index, Clock::time_point now) {
  Agent& a = agents_[index];
  while (a.connected()) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    const run::FrameAssembler::Status status =
        a.conn->frames().next(header, body, corrupt);
    if (status == run::FrameAssembler::Status::kNeedMore) return;
    if (status == run::FrameAssembler::Status::kCorrupt) {
      connection_lost(index, "protocol corruption (" + corrupt + ")", now);
      return;
    }
    if (a.state == Agent::State::kHandshaking) {
      on_handshake_frame(index, header, body, now);
    } else {
      on_session_frame(index, header, body, now);
    }
  }
}

void AgentFleet::on_handshake_frame(std::size_t index,
                                    const wire::FrameHeader& header,
                                    const std::vector<std::uint8_t>& body,
                                    Clock::time_point now) {
  Agent& a = agents_[index];
  if (header.type == wire::FrameType::kError) {
    // Version or auth mismatch: the agent will never accept us.
    abandon(index, "agent " + a.addr.text() + " rejected handshake: " +
                       decode_reason(body, "(undecodable error payload)"));
    return;
  }
  if (header.type != wire::FrameType::kWelcome) {
    connection_lost(index, "unexpected frame before kWelcome", now);
    return;
  }
  Welcome welcome;
  try {
    welcome = decode_welcome(body);
  } catch (const Error& e) {
    connection_lost(
        index, "protocol corruption (" + std::string(e.what()) + ")", now);
    return;
  }
  on_welcome(index, welcome, now);
}

void AgentFleet::on_session_frame(std::size_t index,
                                  const wire::FrameHeader& header,
                                  std::vector<std::uint8_t>& body,
                                  Clock::time_point now) {
  Agent& a = agents_[index];
  if (header.type == wire::FrameType::kPong) {
    a.pings_unanswered = 0;
    a.last_pong = now;
    return;
  }
  if (header.type == wire::FrameType::kTelemetry) {
    // Advisory shipment from the agentd ("agentd") or one of its workers
    // ("worker.M", re-labeled by the agentd). Arrives before the answer
    // frame, so it must not consult the endpoint table. A CRC-valid but
    // undecodable payload means the agent speaks a different dialect —
    // retire the connection like any corruption.
    try {
      const obs::Telemetry telemetry = wire::decode_telemetry(body);
      if (telemetry_ != nullptr) {
        telemetry_->ingest(
            "agent." + std::to_string(index) + "." + telemetry.role,
            telemetry, a.clock_offset_nanos);
        bump("net.telemetry_frames");
      }
    } catch (const Error& e) {
      connection_lost(
          index, "protocol corruption (" + std::string(e.what()) + ")", now);
    }
    return;
  }
  run::Endpoint* ep = nullptr;
  for (run::Endpoint& slot : a.slots) {
    if (slot.busy() && slot.task == header.task_id &&
        slot.attempt == header.attempt) {
      ep = &slot;
      break;
    }
  }
  if (ep == nullptr) {
    connection_lost(index, "answer for a task this agent does not hold", now);
    return;
  }
  switch (header.type) {
    case wire::FrameType::kResult: {
      const std::string corrupt = owner_.on_result(index, *ep, body, now);
      if (!corrupt.empty()) {
        connection_lost(index, "protocol corruption (" + corrupt + ")", now);
        return;
      }
      ep->clear();
      return;
    }
    case wire::FrameType::kError: {
      // Deterministic failure: retrying reruns the same deterministic
      // simulation on another agent.
      const std::size_t task = ep->task;
      ep->clear();
      owner_.on_error(task, decode_reason(body, "(undecodable error payload)"));
      return;
    }
    case wire::FrameType::kFail: {
      // Transient failure at the agent (its worker died): requeue this
      // attempt only; the connection stays up.
      const std::size_t task = ep->task;
      ep->clear();
      bump("net.cells_requeued");
      owner_.on_requeue(
          task,
          "agent " + a.addr.text() + ": " +
              decode_reason(body, "(undecodable failure payload)"),
          now);
      return;
    }
    default:
      connection_lost(index, "unexpected frame type in session", now);
      return;
  }
}

// ---- views --------------------------------------------------------------

bool AgentFleet::all_abandoned() const {
  for (const Agent& a : agents_) {
    if (a.state != Agent::State::kAbandoned) return false;
  }
  return true;
}

std::size_t AgentFleet::ready_slots() const {
  std::size_t total = 0;
  for (const Agent& a : agents_) {
    if (a.state == Agent::State::kReady) total += a.slots.size();
  }
  return total;
}

std::vector<run::AgentLiveness> AgentFleet::liveness(
    Clock::time_point now) const {
  std::vector<run::AgentLiveness> out;
  out.reserve(agents_.size());
  for (const Agent& a : agents_) {
    run::AgentLiveness live;
    live.addr = a.addr.text();
    switch (a.state) {
      case Agent::State::kReady:
        // The ping in flight proves nothing yet; an earlier one still
        // unanswered is a missed heartbeat.
        live.state = a.pings_unanswered <= 1 ? "alive" : "suspect";
        break;
      case Agent::State::kAbandoned:
        live.state = "dead";
        break;
      case Agent::State::kBackoff:
      case Agent::State::kConnecting:
      case Agent::State::kHandshaking:
        live.state = "connecting";
        break;
    }
    if (a.ever_ponged) {
      live.last_heartbeat_age_seconds =
          std::chrono::duration<double>(now - a.last_pong).count();
    }
    live.last_error = a.last_error;
    out.push_back(std::move(live));
  }
  return out;
}

}  // namespace esched::net
