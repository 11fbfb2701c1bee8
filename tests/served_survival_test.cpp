// Survival tests for cqa::served under a hostile network: the
// hung-worker watchdog (SIGSTOP drill), the retrying client's edge
// semantics (timeout-while-waiting vs. expiry-mid-frame, clean-EOF
// auto-retry, the non-idempotent exclusion, connect timeouts), the
// in-process ChaosSocket seam, and the headline acceptance drill --
// mixed traffic through a seeded ChaosProxy with a SIGSTOP and a
// SIGKILL thrown in, where every reply must be correct, a typed
// retryable error, or certified degraded with the honest guard flag.
//
// Run with the 240s TSan timeout class: fleets fork, watchdog budgets
// are real wall-clock waits, and the chaos drill pushes dozens of
// round trips through a fault gauntlet.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cqa/guard/fault.h"
#include "cqa/runtime/session.h"
#include "cqa/served/chaos.h"
#include "cqa/served/client.h"
#include "cqa/served/server.h"
#include "cqa/served/wire.h"
#include "cqa/util/bincode.h"
#include "cqa/util/cancellation.h"
#include "gtest/gtest.h"

namespace cqa {
namespace {

std::string tmp_name(const char* stem) {
  return std::string("/tmp/cqa_survival_test.") + std::to_string(getpid()) +
         "." + stem;
}

served::Client must_connect(const std::string& sock,
                            served::ClientOptions copts = {}) {
  auto connected = served::Client::connect_unix(sock, copts);
  CQA_CHECK(connected.is_ok());
  return std::move(connected).take();
}

// A Monte-Carlo request of ~10^5 samples (about a hundred sampler
// chunks): under slow_chunk_plan() it is still in flight when the test
// SIGSTOPs its shard.
Request slow_mc(std::uint64_t seed) {
  return Request::volume("x^2 + y^2 + x*y <= 4/5")
      .vars({"x", "y"})
      .strategy(VolumeStrategy::kMonteCarlo)
      .epsilon(0.001)
      .vc_dim(3.0)
      .seed(seed)
      .build();
}

// Every sampler chunk in a fleet forked while the returned injector is
// installed sleeps ~1 ms (workers inherit the parent's injector slot),
// so a slow_mc request holds its shard for ~10^2 chunk sleeps however
// fast the membership kernel is. A drill that signals the shard once
// its batch is admitted then provably lands mid-request.
guard::FaultPlan slow_chunk_plan() {
  guard::FaultPlan plan;
  plan.rate[static_cast<std::size_t>(guard::FaultSite::kSlowChunk)] = 1.0;
  return plan;
}

// Blocks until the router has admitted `n` request frames in total (a
// frame counts before it is forwarded, so the forward follows within
// microseconds).
void await_admitted(const served::Server& server, std::uint64_t n) {
  for (int i = 0; i < 10000 && server.stats().requests < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, n) << "batch never reached the router";
}

// ------------------------------------------------------------- watchdog

TEST(ServedSurvival, WatchdogKillsSigstoppedWorkerAndRespawns) {
  served::ServedOptions options;
  options.workers = 2;
  options.unix_path = tmp_name("sigstop.sock");
  options.watchdog_budget_ms = 800;
  options.watchdog_interval_ms = 50;
  options.term_grace_ms = 100;
  guard::FaultInjector injector(slow_chunk_plan());
  guard::ScopedFaultInjector slow_chunks(&injector);
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  std::uint64_t hung_answers = 0;
  std::uint64_t seed = 1;
  const std::size_t victim = server.shard_of(slow_mc(seed));
  for (int attempt = 0; attempt < 3 && hung_answers == 0; ++attempt) {
    std::vector<Request> batch;
    while (batch.size() < 4) {
      Request r = slow_mc(seed++);
      if (server.shard_of(r) == victim) batch.push_back(std::move(r));
    }
    const pid_t old_pid = server.worker_pid(victim);
    const std::uint64_t admitted = server.stats().requests;
    std::atomic<std::uint64_t> hung{0};
    std::atomic<std::uint64_t> timed_out{0};
    std::vector<std::thread> threads;
    for (const Request& r : batch) {
      threads.emplace_back([&, r] {
        served::Client client = must_connect(options.unix_path);
        auto a = client.call(r, /*timeout_ms=*/60000);
        if (!a.is_ok()) {
          if (a.status().code() == StatusCode::kDeadlineExceeded) {
            timed_out.fetch_add(1);
          }
          return;
        }
        if (a.value().guard.worker_hung) {
          hung.fetch_add(1);
          // Honest degradation: certified trivial-1/2, [0, 1] bars,
          // flagged degraded, and the flag names the watchdog path --
          // never worker_crashed, never a made-up answer.
          EXPECT_TRUE(a.value().degraded());
          EXPECT_LE(a.value().volume.lower.value_or(1.0), 0.0);
          EXPECT_GE(a.value().volume.upper.value_or(0.0), 1.0);
          EXPECT_FALSE(a.value().guard.shed);
          EXPECT_FALSE(a.value().guard.worker_crashed);
        }
      });
    }
    // Once the whole batch is on the victim (slow chunks keep it there),
    // freeze the worker: no corpse for the supervisor to see, only a
    // flat heartbeat.
    await_admitted(server, admitted + batch.size());
    kill(old_pid, SIGSTOP);
    for (auto& th : threads) th.join();
    EXPECT_EQ(timed_out.load(), 0u) << "a client hung past the watchdog";
    hung_answers += hung.load();

    // The watchdog escalated (SIGTERM cannot wake a stopped process;
    // SIGKILL did) and the supervisor respawned the shard.
    for (int i = 0; i < 400 && server.worker_pid(victim) == old_pid; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_NE(server.worker_pid(victim), old_pid);
  }
  EXPECT_GT(hung_answers, 0u)
      << "the SIGSTOP never caught a request in flight";
  EXPECT_GE(server.stats().hung_kills, 1u);
  EXPECT_GE(server.stats().hung_degraded, hung_answers);
  EXPECT_GE(server.stats().respawns, 1u);

  // The healed shard serves again at full fidelity.
  served::Client client = must_connect(options.unix_path);
  auto healed = client.call(slow_mc(seed + 100), /*timeout_ms=*/60000);
  ASSERT_TRUE(healed.is_ok());

  server.stop();
  unlink(options.unix_path.c_str());
}

TEST(ServedSurvival, WatchdogSparesSlowButLiveWork) {
  // A budget far above the request latency: the watchdog must never
  // confuse slow with wedged.
  served::ServedOptions options;
  options.workers = 1;
  options.unix_path = tmp_name("spare.sock");
  options.watchdog_budget_ms = 120000;
  options.watchdog_interval_ms = 50;
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());
  served::Client client = must_connect(options.unix_path);
  auto a = client.call(slow_mc(3), /*timeout_ms=*/60000);
  ASSERT_TRUE(a.is_ok());
  EXPECT_FALSE(a.value().guard.worker_hung);
  EXPECT_EQ(server.stats().hung_kills, 0u);
  EXPECT_EQ(server.stats().respawns, 0u);
  server.stop();
  unlink(options.unix_path.c_str());
}

// ------------------------------------------------- client edge semantics

/// A scripted wire peer on a unix socket: accepts connections serially
/// and hands each raw fd to the test's handler.
class FakeServer {
 public:
  FakeServer(std::string path, std::function<void(int)> handler)
      : path_(std::move(path)), handler_(std::move(handler)) {
    unlink(path_.c_str());
    listener_ = socket(AF_UNIX, SOCK_STREAM, 0);
    CQA_CHECK(listener_ >= 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CQA_CHECK(path_.size() < sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    CQA_CHECK(bind(listener_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0);
    CQA_CHECK(listen(listener_, 8) == 0);
    thread_ = std::thread([this] {
      for (;;) {
        const int fd = accept(listener_, nullptr, nullptr);
        if (fd < 0) return;
        handler_(fd);
        close(fd);
      }
    });
  }
  ~FakeServer() {
    shutdown(listener_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    close(listener_);
    unlink(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::function<void(int)> handler_;
  int listener_ = -1;
  std::thread thread_;
};

std::string ask_answer(bool truth) {
  Answer a;
  a.kind = RequestKind::kAsk;
  a.truth = truth;
  return served::encode_answer(Result<Answer>(std::move(a)), nullptr);
}

Request ask_request() { return Request::ask("E x. x = 1").build(); }

TEST(ServedSurvival, TimeoutWhileWaitingKeepsConnectionDiscardsStaleAnswer) {
  FakeServer fake(tmp_name("stale.sock"), [](int fd) {
    // First request: answer far too late. Second: answer promptly.
    served::Frame f1;
    if (!served::read_frame(fd, &f1).is_ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    (void)served::write_frame(fd, served::MsgType::kAnswer, f1.id,
                              ask_answer(false));
    served::Frame f2;
    if (!served::read_frame(fd, &f2).is_ok()) return;
    (void)served::write_frame(fd, served::MsgType::kAnswer, f2.id,
                              ask_answer(true));
    served::Frame eof;
    (void)served::read_frame(fd, &eof);
  });
  served::Client client = must_connect(fake.path());

  // Expiry hits while *waiting*, with no frame bytes consumed: the call
  // fails typed, but the connection stays usable.
  auto late = client.call(ask_request(), /*timeout_ms=*/250);
  ASSERT_FALSE(late.is_ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client.connected());

  // The next call reuses the connection; the stale id-1 answer (truth =
  // false) is discarded and the fresh id-2 answer (truth = true) lands.
  auto fresh = client.call(ask_request(), /*timeout_ms=*/5000);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(fresh.value().truth, std::optional<bool>(true));
  EXPECT_EQ(client.retry_stats().reconnects, 0u);
}

TEST(ServedSurvival, ExpiryMidFramePoisonsConnectionNextCallReconnects) {
  std::atomic<int> conns{0};
  FakeServer fake(tmp_name("midframe.sock"), [&](int fd) {
    served::Frame f;
    if (!served::read_frame(fd, &f).is_ok()) return;
    if (conns.fetch_add(1) == 0) {
      // Answer a 100-byte frame... then stall after 4 body bytes. The
      // client's bounded read expires mid-frame: unsynchronized stream.
      std::string head;
      bincode::put_u32(&head, 100);
      bincode::put_u64(&head, 0);  // checksum never checked: body torn
      head += "abcd";
      (void)send(fd, head.data(), head.size(), MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      return;
    }
    (void)served::write_frame(fd, served::MsgType::kAnswer, f.id,
                              ask_answer(true));
  });
  served::Client client = must_connect(fake.path());
  auto torn = client.call(ask_request(), /*timeout_ms=*/250);
  ASSERT_FALSE(torn.is_ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(client.connected()) << "mid-frame expiry must poison";

  auto fresh = client.call(ask_request(), /*timeout_ms=*/5000);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(fresh.value().truth, std::optional<bool>(true));
  EXPECT_GE(client.retry_stats().reconnects, 1u);
}

TEST(ServedSurvival, CleanEofAutoRetriesIdempotentRequests) {
  std::atomic<int> conns{0};
  FakeServer fake(tmp_name("eof.sock"), [&](int fd) {
    served::Frame f;
    if (!served::read_frame(fd, &f).is_ok()) return;
    if (conns.fetch_add(1) == 0) {
      // Read the request, answer nothing, close: the client sees a
      // clean FIN before any answer byte. (Closing with the request
      // still unread would send RST -- a different failure.)
      return;
    }
    (void)served::write_frame(fd, served::MsgType::kAnswer, f.id,
                              ask_answer(true));
  });
  served::ClientOptions copts;
  copts.backoff_base_ms = 1;
  copts.backoff_cap_ms = 5;
  served::Client client = must_connect(fake.path(), copts);
  // One logical call: the first attempt dies on EOF, the retry
  // reconnects and succeeds -- invisible to the caller.
  auto a = client.call(ask_request(), /*timeout_ms=*/5000);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().truth, std::optional<bool>(true));
  EXPECT_GE(client.retry_stats().retries, 1u);
  EXPECT_GE(client.retry_stats().reconnects, 1u);
}

TEST(ServedSurvival, NonIdempotentRequestsNeverAutoRetry) {
  std::atomic<int> conns{0};
  FakeServer fake(tmp_name("nonidem.sock"), [&](int fd) {
    conns.fetch_add(1);
    served::Frame f;
    (void)served::read_frame(fd, &f);  // read the request, then drop
  });
  served::Client client = must_connect(fake.path());
  CancelToken token;
  Request r = Request::ask("E x. x = 1").cancel(&token).build();
  auto a = client.call(r, /*timeout_ms=*/5000);
  ASSERT_FALSE(a.is_ok());
  EXPECT_EQ(client.retry_stats().retries, 0u)
      << "a cancel-bearing request must not be silently re-issued";
  EXPECT_EQ(conns.load(), 1);
}

TEST(ServedSurvival, ConnectTcpTimesOutInsteadOfHanging) {
  // A listener that never accepts, with its backlog pre-filled: further
  // SYNs get no answer, the classic black-holed-host shape.
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 1), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len);
  const std::uint16_t port = ntohs(bound.sin_port);
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    timeval tv{};
    tv.tv_usec = 50 * 1000;
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    (void)connect(fd, reinterpret_cast<sockaddr*>(&bound), sizeof(bound));
    fillers.push_back(fd);
  }

  served::ClientOptions copts;
  copts.connect_timeout_ms = 300;
  copts.max_attempts = 1;
  const auto t0 = std::chrono::steady_clock::now();
  auto client = served::Client::connect_tcp("127.0.0.1", port, copts);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 5000) << "connect timeout did not bound the dial";

  for (int fd : fillers) close(fd);
  close(listener);
}

// ------------------------------------------------------ ChaosSocket seam

std::string raw_frame(const std::string& payload) {
  std::string body;
  bincode::put_u8(&body, served::kWireVersion);
  bincode::put_u8(&body,
                  static_cast<std::uint8_t>(served::MsgType::kPing));
  bincode::put_u64(&body, 9);
  body += payload;
  std::string buf;
  bincode::put_u32(&buf, static_cast<std::uint32_t>(body.size()));
  bincode::put_u64(&buf, served::frame_checksum(body));
  buf += body;
  return buf;
}

guard::FaultPlan one_site_plan(guard::FaultSite site) {
  guard::FaultPlan plan;
  plan.seed = 11;
  plan.rate[static_cast<std::size_t>(site)] = 1.0;
  return plan;
}

TEST(ChaosSocket, BitFlipIsDetectedNeverDecoded) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  guard::FaultInjector injector(
      one_site_plan(guard::FaultSite::kWireBitFlip));
  served::ChaosSocket chaos(fds[0], &injector);
  EXPECT_TRUE(chaos.send(raw_frame("some ping payload")).is_ok());
  close(fds[0]);  // EOF after the corrupt frame: reads cannot hang
  served::Frame frame;
  Status s = served::read_frame(fds[1], &frame);
  // The flip may land in the body (checksum mismatch) or the header
  // (bad length / truncation) -- either way a typed error, never a
  // silently decoded frame.
  ASSERT_FALSE(s.is_ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument ||
              s.code() == StatusCode::kInternal)
      << s.to_string();
  EXPECT_EQ(injector.fired(guard::FaultSite::kWireBitFlip), 1u);
  close(fds[1]);
}

TEST(ChaosSocket, TornFrameIsMidFrameInternal) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  guard::FaultInjector injector(
      one_site_plan(guard::FaultSite::kWireTornFrame));
  served::ChaosSocket chaos(fds[0], &injector);
  EXPECT_FALSE(chaos.send(raw_frame("payload that gets cut")).is_ok());
  served::Frame frame;
  EXPECT_EQ(served::read_frame(fds[1], &frame).code(),
            StatusCode::kInternal);
  close(fds[0]);
  close(fds[1]);
}

TEST(ChaosSocket, DisconnectIsCleanEof) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  guard::FaultInjector injector(
      one_site_plan(guard::FaultSite::kWireDisconnect));
  served::ChaosSocket chaos(fds[0], &injector);
  EXPECT_FALSE(chaos.send(raw_frame("never sent")).is_ok());
  served::Frame frame;
  EXPECT_EQ(served::read_frame(fds[1], &frame).code(),
            StatusCode::kCancelled);
  close(fds[0]);
  close(fds[1]);
}

// ------------------------------------------------- the acceptance drill

TEST(ServedSurvival, ChaosProxyDrillProducesZeroDishonestAnswers) {
  served::ServedOptions options;
  options.workers = 3;
  options.unix_path = tmp_name("drill.sock");
  options.watchdog_budget_ms = 1000;
  options.watchdog_interval_ms = 50;
  options.term_grace_ms = 100;
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  served::ChaosOptions copt;
  copt.plan.seed = 42;
  auto rate = [&](guard::FaultSite s) -> double& {
    return copt.plan.rate[static_cast<std::size_t>(s)];
  };
  rate(guard::FaultSite::kWireTornFrame) = 0.02;
  rate(guard::FaultSite::kWireDisconnect) = 0.02;
  rate(guard::FaultSite::kWireBitFlip) = 0.02;
  rate(guard::FaultSite::kWireStalledWrite) = 0.05;
  rate(guard::FaultSite::kWireBlackhole) = 0.05;
  copt.stall_ms = 100;
  copt.upstream_unix = options.unix_path;
  served::ChaosProxy proxy(copt);
  ASSERT_TRUE(proxy.start().is_ok());
  ASSERT_NE(proxy.port(), 0);

  // The reference answer every full-fidelity reply must match exactly.
  const double kQuarter = 0.25;
  auto quarter_req = [](std::uint64_t seed) {
    return Request::volume("0 <= x & x <= 1/2 & 0 <= y & y <= 1/2")
        .vars({"x", "y"})
        .seed(seed)
        .build();
  };

  const int kThreads = 5;
  const int kCallsPerThread = 12;
  std::atomic<std::uint64_t> ok_exact{0};
  std::atomic<std::uint64_t> ok_degraded{0};
  std::atomic<std::uint64_t> typed_errors{0};
  std::atomic<std::uint64_t> dishonest{0};
  std::atomic<std::uint64_t> client_retries{0};
  std::atomic<std::uint64_t> client_reconnects{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      served::ClientOptions cl;
      cl.connect_timeout_ms = 1000;
      cl.backoff_base_ms = 5;
      cl.backoff_cap_ms = 50;
      cl.seed = 100 + static_cast<std::uint64_t>(t);
      auto connect = [&]() {
        return served::Client::connect_tcp("127.0.0.1", proxy.port(), cl);
      };
      auto client = connect();
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (!client.is_ok()) {
          client = connect();
          if (!client.is_ok()) {
            typed_errors.fetch_add(1);
            continue;
          }
        }
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t) * 1000 + i;
        auto a =
            client.value().call(quarter_req(seed), /*timeout_ms=*/3000);
        if (!a.is_ok()) {
          // Any *typed* failure is honest; an untyped hang would have
          // tripped the timeout accounting below.
          typed_errors.fetch_add(1);
          if (a.status().code() == StatusCode::kDeadlineExceeded) {
            // Blackholed or stalled past the budget: re-dial rather
            // than burning every later call on a dead proxy pipe.
            client_retries.fetch_add(
                client.value().retry_stats().retries);
            client_reconnects.fetch_add(
                client.value().retry_stats().reconnects);
            client = connect();
          }
          continue;
        }
        const Answer& ans = a.value();
        if (ans.degraded()) {
          const bool flagged = ans.guard.shed || ans.guard.worker_crashed ||
                               ans.guard.worker_hung;
          const bool honest_bars =
              ans.volume.lower.value_or(1.0) <= 0.0 &&
              ans.volume.upper.value_or(0.0) >= 1.0;
          if (flagged && honest_bars) {
            ok_degraded.fetch_add(1);
          } else {
            dishonest.fetch_add(1);
          }
          continue;
        }
        if (ans.volume.value() == kQuarter) {
          ok_exact.fetch_add(1);
        } else {
          dishonest.fetch_add(1);  // corruption slipped through
        }
      }
      if (client.is_ok()) {
        client_retries.fetch_add(client.value().retry_stats().retries);
        client_reconnects.fetch_add(
            client.value().retry_stats().reconnects);
      }
    });
  }

  // Mid-drill, make the fleet itself hostile too: SIGKILL one shard,
  // SIGSTOP another. The watchdog and the crash sweep both fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  kill(server.worker_pid(0), SIGKILL);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  kill(server.worker_pid(1), SIGSTOP);

  for (auto& th : threads) th.join();

  EXPECT_EQ(dishonest.load(), 0u)
      << "a dishonest answer survived the gauntlet";
  EXPECT_GT(ok_exact.load(), 0u) << "the drill never succeeded at all";
  // The chaos actually fired, and containment actually ran.
  const served::ChaosStats cs = proxy.stats();
  EXPECT_GT(cs.torn + cs.disconnects + cs.bit_flips + cs.stalled +
                cs.blackholes,
            0u);
  const served::ServerStats ss = server.stats();
  EXPECT_GE(ss.respawns, 1u);

  proxy.stop();
  server.stop();
  unlink(options.unix_path.c_str());
}

}  // namespace
}  // namespace cqa
