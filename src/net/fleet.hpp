// One supervised esched-agentd fleet: the agent state machine both TCP
// sweep drivers share.
//
// net::DistributedPool (one sweep per run(); connections opened and
// closed inside it) and svc::Coordinator (a daemon whose fleet lives as
// long as the process) speak the same protocol to the same agents.
// AgentFleet is the client half of that protocol, written once:
//
//  * Per-agent lifecycle: backoff -> connecting -> handshaking -> ready,
//    reconnecting with capped exponential backoff. A kError answer to the
//    kHello, or a kWelcome of another protocol version, is a permanent
//    rejection: the agent is abandoned ("dead") and never retried.
//  * The kHello/kWelcome handshake, including the mid-RTT clock-offset
//    estimate that re-bases an agent's telemetry spans onto our clock.
//  * kPing/kPong heartbeats: an agent that leaves `heartbeat_misses` pings
//    unanswered is retired even if TCP still looks open.
//  * Per-slot run::Endpoint bookkeeping and task deadlines. A cell cannot
//    be killed remotely, so an expired deadline retires the connection.
//  * Inbound-frame classification: kResult (handed to the owner), kFail
//    (requeue that attempt), kError (deterministic failure), kTelemetry
//    (ingested into an optional obs::FleetAggregator). Corruption, an
//    answer for a task the agent does not hold, or any other frame
//    retires the connection.
//  * Liveness snapshots (run::AgentLiveness: alive/suspect/dead/
//    connecting).
//
// The fleet owns no tasks. Its FleetOwner decides what a free slot runs
// (claim) and what a result, a requeue or a deterministic error means.
// A lost connection requeues each in-flight attempt on that agent through
// FleetOwner::on_requeue, one attempt charged per cell. The owner also
// decides whether an agent whose connects keep failing is abandoned
// (DistributedPool, after connect_attempts in a row) or retried forever
// (the coordinator).
//
// Single-threaded and poll()-driven, like obs::HttpServer: per loop
// iteration the owner calls advance(), dispatch(), add_poll_fds() before
// its poll(), on_poll() after it, then check_timers(); next_wakeup()
// feeds the poll timeout. Writes to a dead agent surface as EPIPE only
// under a run::SigpipeGuard, which the owner holds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/sweep.hpp"

namespace esched::obs {
class FleetAggregator;
class Tracer;
}  // namespace esched::obs

namespace esched::net {

/// Tracer track of agent i is kAgentTrackBase + i, clear of in-process
/// worker tracks and of the subprocess pool's 1000+slot tracks.
inline constexpr std::uint32_t kAgentTrackBase = 2000;

/// Supervision timing, shared by DistributedPoolConfig and
/// svc::CoordinatorConfig so a fleet behaves the same under either.
struct FleetTiming {
  /// Per-task wall-clock timeout; expiry retires the agent connection
  /// and requeues its in-flight cells. 0 disables the timeout.
  double task_timeout_seconds = 0.0;
  /// TCP connect + handshake deadline per attempt.
  double connect_timeout_seconds = 5.0;
  /// kPing cadence per connected agent.
  double heartbeat_interval_seconds = 1.0;
  /// Unanswered pings before the agent is declared dead.
  std::uint32_t heartbeat_misses = 3;
  /// Reconnect backoff: initial delay, doubled per consecutive failure,
  /// capped at the max.
  double reconnect_initial_seconds = 0.1;
  double reconnect_max_seconds = 2.0;
};

/// What the fleet hands back to the sweep driver that owns it.
class FleetOwner {
 public:
  using Clock = run::EndpointClock;

  /// One dispatch for a free slot.
  struct Job {
    std::size_t task = run::kNoTask;
    std::uint32_t attempt = 0;
    const std::vector<std::uint8_t>* payload = nullptr;  ///< kJob body
  };

  /// Fill `job` with the next dispatchable task; false when none is
  /// ready. `payload` must stay valid until the call returns.
  virtual bool claim(Clock::time_point now, Job& job) = 0;

  /// `slot` (still holding its task) was answered with kResult `body`,
  /// CRC-verified but not decoded. Return "" to accept the result; any
  /// other string is a corruption reason, and the fleet retires the
  /// connection, requeueing this attempt with its siblings.
  virtual std::string on_result(std::size_t agent, const run::Endpoint& slot,
                                std::vector<std::uint8_t>& body,
                                Clock::time_point now) = 0;

  /// An attempt of `task` failed transiently (kFail, a lost connection,
  /// an expired deadline); charge it and requeue. May throw to end the
  /// owner's run.
  virtual void on_requeue(std::size_t task, const std::string& reason,
                          Clock::time_point now) = 0;

  /// `task` failed deterministically (kError): a retry would fail too.
  virtual void on_error(std::size_t task, const std::string& message) = 0;

  /// `agent` has failed `failures` connects in a row (a completed
  /// handshake resets the count). Return false to abandon it for good.
  virtual bool keep_connecting(std::size_t /*agent*/,
                               std::uint32_t /*failures*/) {
    return true;
  }

 protected:
  ~FleetOwner() = default;
};

class AgentFleet {
 public:
  using Clock = run::EndpointClock;

  /// `auth_token` travels in every kHello (net::Hello::token). `owner`
  /// must outlive the fleet.
  AgentFleet(std::vector<HostPort> agents, const FleetTiming& timing,
             std::string auth_token, FleetOwner& owner);

  /// Optional: one "agent:<addr>" span per connection lifetime on the
  /// agent's track. Non-owning.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Optional: request kTelemetry in the hello and ingest every frame
  /// under "agent.<index>.<role>" with the handshake's clock offset.
  /// Non-owning. Never affects results.
  void set_telemetry(obs::FleetAggregator* fleet) { telemetry_ = fleet; }

  /// Arm every agent to connect at `now`. Call once, before the loop.
  void start(Clock::time_point now);

  /// Start connects whose backoff expired; fail expired connects and
  /// handshakes.
  void advance(Clock::time_point now);

  /// Offer every free slot of every ready agent to FleetOwner::claim,
  /// in agent then slot order, until the owner has nothing ready.
  void dispatch(Clock::time_point now);

  /// Append the fds of agents with a socket, with the events each needs.
  void add_poll_fds(std::vector<struct pollfd>& fds);

  /// Service what poll() reported on the fds the last add_poll_fds()
  /// appended (`fds` is the whole array passed to poll()).
  void on_poll(const struct pollfd* fds);

  /// Task deadlines and heartbeats, after answers that beat the clock.
  void check_timers(Clock::time_point now);

  /// The nearest agent clock: backoff expiry, connect deadline,
  /// heartbeat tick or task deadline. Empty when no agent waits on one.
  std::optional<Clock::time_point> next_wakeup() const;

  /// True when every agent has been abandoned.
  bool all_abandoned() const;

  /// Slots across agents that are ready right now.
  std::size_t ready_slots() const;
  /// The largest ready_slots() seen so far.
  std::size_t peak_ready_slots() const { return peak_ready_slots_; }

  std::vector<run::AgentLiveness> liveness(Clock::time_point now) const;

  /// Close every connection (ending lifetime spans). Never throws; the
  /// agents drop orphaned work on EOF.
  void close_all(Clock::time_point now) noexcept;

 private:
  struct Agent {
    enum class State {
      kBackoff,      ///< waiting for retry_at before (re)connecting
      kConnecting,   ///< TCP connect in flight (poll for POLLOUT)
      kHandshaking,  ///< kHello sent, waiting for kWelcome
      kReady,        ///< handshake done; jobs and heartbeats flow
      kAbandoned,    ///< rejected, or given up on by the owner
    };

    HostPort addr;
    State state = State::kBackoff;
    std::optional<FrameConn> conn;
    std::vector<run::Endpoint> slots;  ///< sized by the kWelcome slot count

    Clock::time_point retry_at{};          ///< kBackoff: next connect time
    Clock::time_point connect_deadline{};  ///< kConnecting/kHandshaking
    Clock::time_point connected_at{};      ///< kReady: for lifetime spans
    double backoff_seconds = 0.0;
    std::uint32_t connect_failures = 0;  ///< in a row; reset on kWelcome
    bool ever_connected = false;

    Clock::time_point next_ping{};
    std::uint32_t ping_seq = 0;
    std::uint32_t pings_unanswered = 0;
    /// Last proof of life: the kWelcome, then every kPong.
    Clock::time_point last_pong{};
    bool ever_ponged = false;

    /// When the kHello left, for the clock-offset estimate.
    Clock::time_point hello_sent{};
    /// Adding this to the agent's steady-clock nanos re-bases its span
    /// timestamps onto our steady clock.
    std::int64_t clock_offset_nanos = 0;

    std::string last_error;  ///< most recent failure ("" when none)

    bool connected() const {
      return state == State::kHandshaking || state == State::kReady;
    }
  };

  void start_connect(std::size_t index, Clock::time_point now);
  void on_connect_writable(std::size_t index, Clock::time_point now);
  void on_welcome(std::size_t index, const Welcome& welcome,
                  Clock::time_point now);
  void connect_failure(std::size_t index, const std::string& error,
                       Clock::time_point now);
  void abandon(std::size_t index, const std::string& error);
  void connection_lost(std::size_t index, const std::string& what,
                       Clock::time_point now);
  void retry_later(Agent& agent, Clock::time_point now);
  void emit_connection_span(std::size_t index, Clock::time_point now);
  void on_readable(std::size_t index, Clock::time_point now);
  void process_frames(std::size_t index, Clock::time_point now);
  void on_handshake_frame(std::size_t index,
                          const run::wire::FrameHeader& header,
                          const std::vector<std::uint8_t>& body,
                          Clock::time_point now);
  void on_session_frame(std::size_t index,
                        const run::wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body,
                        Clock::time_point now);
  void check_task_deadlines(Clock::time_point now);
  void check_heartbeats(Clock::time_point now);

  FleetTiming timing_;
  std::string auth_token_;
  FleetOwner& owner_;
  obs::Tracer* tracer_ = nullptr;
  obs::FleetAggregator* telemetry_ = nullptr;

  std::vector<Agent> agents_;
  std::size_t peak_ready_slots_ = 0;
  /// Where the last add_poll_fds() started, and its agent per entry.
  std::size_t poll_base_ = 0;
  std::vector<std::size_t> poll_agents_;
};

/// poll() timeout in ms until `wake` (0 when past), capped at 60 s —
/// also the wait when there is nothing to wake for.
int poll_timeout_ms(AgentFleet::Clock::time_point now,
                    std::optional<AgentFleet::Clock::time_point> wake);

}  // namespace esched::net
