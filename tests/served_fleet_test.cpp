// End-to-end tests for the sharded serving layer (cqa::served): a real
// forked fleet behind a unix socket, exercised through the wire client.
//
// The headline regression here is crash containment -- the ISSUE 6
// acceptance bar: kill -9 one worker mid-request and the damage must be
// exactly one shard. The victim's in-flight requests resolve honestly
// degraded (guard.worker_crashed = true, certified trivial-1/2 bars),
// the other shards keep answering at full fidelity, and the supervisor
// respawns the dead shard so the fleet heals itself.
//
// Run with the 240s TSan timeout class: the fleet forks, and the
// Monte-Carlo payloads used to pin a request in flight are slowed by an
// injected slow-chunk fault.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cqa/guard/fault.h"
#include "cqa/runtime/session.h"
#include "cqa/served/client.h"
#include "cqa/served/server.h"
#include "gtest/gtest.h"

namespace cqa {
namespace {

std::string tmp_name(const char* stem) {
  return std::string("/tmp/cqa_fleet_test.") + std::to_string(getpid()) +
         "." + stem;
}

served::ServedOptions fleet_options(const char* stem, std::size_t workers) {
  served::ServedOptions options;
  options.workers = workers;
  options.unix_path = tmp_name(stem);
  return options;
}

void cleanup(const served::ServedOptions& options) {
  unlink(options.unix_path.c_str());
  if (!options.cache_path.empty()) {
    unlink(options.cache_path.c_str());
    for (std::size_t i = 0; i < options.workers; ++i) {
      unlink((options.cache_path + ".volumes.shard" + std::to_string(i))
                 .c_str());
    }
  }
}

served::Client must_connect(const std::string& sock) {
  auto connected = served::Client::connect_unix(sock);
  CQA_CHECK(connected.is_ok());
  return std::move(connected).take();
}

// A Monte-Carlo request of ~10^5 samples (about a hundred sampler
// chunks): under slow_chunk_plan() it is still in flight when the test
// aims a SIGKILL at its shard.
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

TEST(ServedFleet, MixedTrafficMatchesLocalSession) {
  served::ServedOptions options = fleet_options("mixed.sock", 3);
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());
  served::Client client = must_connect(options.unix_path);

  // An exact volume travels the wire bit-for-bit: same value a local
  // Session computes.
  Request quarter =
      Request::volume("0 <= x & x <= 1/2 & 0 <= y & y <= 1/2")
          .vars({"x", "y"})
          .build();
  auto remote = client.call(quarter);
  ASSERT_TRUE(remote.is_ok());
  ASSERT_TRUE(remote.value().volume.exact.has_value());
  ConstraintDatabase db;
  Session local(&db);
  auto local_answer = local.run(quarter);
  ASSERT_TRUE(local_answer.is_ok());
  EXPECT_EQ(remote.value().volume.value(), local_answer.value().volume.value());

  // Decisions round-trip too.
  auto yes = client.call(Request::ask("E x. x * x = 2").build());
  ASSERT_TRUE(yes.is_ok());
  EXPECT_TRUE(yes.value().truth.value_or(false));
  auto no = client.call(Request::ask("E x. x * x = -1").build());
  ASSERT_TRUE(no.is_ok());
  EXPECT_FALSE(no.value().truth.value_or(true));

  // Identical requests route to the same shard: the fingerprint router
  // is deterministic.
  EXPECT_EQ(server.shard_of(quarter), server.shard_of(quarter));

  // ping + stats work over the same connection; stats names every
  // shard with its live pid (what cqa_servedctl and CI parse).
  EXPECT_TRUE(client.ping().is_ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok());
  for (std::size_t i = 0; i < server.worker_count(); ++i) {
    const std::string line = "shard " + std::to_string(i) + " pid " +
                             std::to_string(server.worker_pid(i));
    EXPECT_NE(stats.value().find(line), std::string::npos)
        << "stats missing \"" << line << "\":\n"
        << stats.value();
  }

  server.stop();
  cleanup(options);
}

TEST(ServedFleet, Kill9CostsExactlyOneShard) {
  served::ServedOptions options = fleet_options("kill9.sock", 3);
  guard::FaultInjector injector(slow_chunk_plan());
  guard::ScopedFaultInjector slow_chunks(&injector);
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  // A few attempts in case a batch outraces the kill; each round kills
  // the (possibly respawned) current worker of the victim shard.
  std::uint64_t crashed_answers = 0;
  std::uint64_t seed = 1;
  const std::size_t victim = server.shard_of(slow_mc(seed));
  for (int attempt = 0; attempt < 5 && crashed_answers == 0; ++attempt) {
    // Gather 4 distinct slow requests that all route to the victim.
    std::vector<Request> batch;
    while (batch.size() < 4) {
      Request r = slow_mc(seed++);
      if (server.shard_of(r) == victim) batch.push_back(std::move(r));
    }
    const pid_t old_pid = server.worker_pid(victim);
    const std::uint64_t admitted = server.stats().requests;
    std::atomic<std::uint64_t> crashed{0};
    std::atomic<std::uint64_t> hung{0};
    std::vector<std::thread> threads;
    for (const Request& r : batch) {
      threads.emplace_back([&, r] {
        served::Client client = must_connect(options.unix_path);
        auto a = client.call(r, /*timeout_ms=*/60000);
        if (!a.is_ok()) {
          // Non-volume kinds would error; volumes must degrade instead.
          if (a.status().code() == StatusCode::kDeadlineExceeded) {
            hung.fetch_add(1);
          }
          return;
        }
        if (a.value().guard.worker_crashed) {
          crashed.fetch_add(1);
          // Honest degradation: certified trivial-1/2, bars [0,1],
          // flagged degraded -- never a made-up "real" answer.
          EXPECT_TRUE(a.value().degraded());
          EXPECT_LE(a.value().volume.lower.value_or(1.0), 0.0);
          EXPECT_GE(a.value().volume.upper.value_or(0.0), 1.0);
          EXPECT_FALSE(a.value().guard.shed);
        }
      });
    }
    // Once the whole batch is on the victim (slow chunks keep it there),
    // kill -9.
    await_admitted(server, admitted + batch.size());
    kill(old_pid, SIGKILL);
    for (auto& th : threads) th.join();
    EXPECT_EQ(hung.load(), 0u) << "a client hung past the kill";
    crashed_answers += crashed.load();

    // The supervisor respawned the shard with a fresh process.
    for (int i = 0; i < 200 && server.worker_pid(victim) == old_pid; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_NE(server.worker_pid(victim), old_pid);
  }
  EXPECT_GT(crashed_answers, 0u)
      << "kill -9 never caught a request in flight";
  EXPECT_GE(server.stats().respawns, 1u);
  EXPECT_GE(server.stats().crash_degraded, crashed_answers);

  // The crash cost one shard only: every other shard still serves full
  // fidelity answers, and the respawned victim works again too.
  served::Client client = must_connect(options.unix_path);
  std::size_t other_shard_answers = 0;
  for (std::uint64_t s = 1000; s < 1100 && other_shard_answers < 2; ++s) {
    Request r = Request::volume("0 <= x & x <= 1 & 0 <= y & 2*y <= 1")
                    .vars({"x", "y"})
                    .seed(s)
                    .build();
    if (server.shard_of(r) == victim) continue;
    auto a = client.call(r);
    ASSERT_TRUE(a.is_ok());
    EXPECT_FALSE(a.value().degraded());
    EXPECT_FALSE(a.value().guard.worker_crashed);
    ++other_shard_answers;
  }
  EXPECT_EQ(other_shard_answers, 2u);
  auto healed = client.call(slow_mc(seed + 1));
  ASSERT_TRUE(healed.is_ok());

  server.stop();
  cleanup(options);
}

TEST(ServedFleet, DeadShardShedsAtAdmissionUntilRespawn) {
  served::ServedOptions options = fleet_options("dead.sock", 2);
  options.shard_capacity = 1;
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  // Flood one shard (capacity 1) with concurrent slow requests: at
  // most one is in flight at a time, so the overlap must shed at
  // admission with guard.shed = true -- the same honest ladder the
  // in-process scheduler uses.
  std::uint64_t seed = 1;
  const std::size_t shard = server.shard_of(slow_mc(seed));
  std::vector<Request> batch;
  while (batch.size() < 8) {
    Request r = slow_mc(seed++);
    if (server.shard_of(r) == shard) batch.push_back(std::move(r));
  }
  std::atomic<std::uint64_t> shed_seen{0};
  std::atomic<std::uint64_t> dishonest{0};
  std::vector<std::thread> threads;
  for (const Request& r : batch) {
    threads.emplace_back([&, r] {
      served::Client client = must_connect(options.unix_path);
      auto a = client.call(r, /*timeout_ms=*/60000);
      ASSERT_TRUE(a.is_ok());
      if (!a.value().guard.shed) return;
      shed_seen.fetch_add(1);
      const bool honest = a.value().degraded() &&
                          !a.value().guard.worker_crashed &&
                          a.value().volume.lower.value_or(1.0) <= 0.0 &&
                          a.value().volume.upper.value_or(0.0) >= 1.0;
      if (!honest) dishonest.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(shed_seen.load(), 1u);
  EXPECT_EQ(dishonest.load(), 0u);
  EXPECT_GE(server.stats().shed, shed_seen.load());

  server.stop();
  cleanup(options);
}

TEST(ServedFleet, DiskCacheSurvivesFullRestart) {
  served::ServedOptions options = fleet_options("warm.sock", 2);
  options.cache_path = tmp_name("warm.cache");
  Request mc = Request::volume("x^2 + y^2 <= 9/10")
                   .vars({"x", "y"})
                   .strategy(VolumeStrategy::kMonteCarlo)
                   .epsilon(0.05)
                   .vc_dim(3.0)
                   .seed(7)
                   .build();
  double first_estimate = 0.0;
  {
    served::Server server(options);
    ASSERT_TRUE(server.start().is_ok());
    served::Client client = must_connect(options.unix_path);
    auto a = client.call(mc);
    ASSERT_TRUE(a.is_ok());
    first_estimate = a.value().volume.value();
    // Second identical call: a router-level cache hit.
    auto b = client.call(mc);
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(b.value().volume.value(), first_estimate);
    EXPECT_GE(server.stats().cache_hits, 1u);
    server.stop();
  }
  {
    // Brand-new fleet, same cache file: the answer comes from disk
    // without recomputation, byte-identical.
    served::Server server(options);
    ASSERT_TRUE(server.start().is_ok());
    served::Client client = must_connect(options.unix_path);
    auto a = client.call(mc);
    ASSERT_TRUE(a.is_ok());
    EXPECT_EQ(a.value().volume.value(), first_estimate);
    EXPECT_GE(server.stats().cache_hits, 1u);
    EXPECT_GE(server.cache_stats().entries, 1u);
    server.stop();
  }
  cleanup(options);
}

TEST(ServedFleet, ShortLivedConnectionsAreReaped) {
  served::ServedOptions options = fleet_options("reap.sock", 1);
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  // Burn through many short-lived connections (each Client destructor
  // closes its socket). A long-running router must not accumulate one
  // thread + conn entry per dead connection until stop().
  for (int i = 0; i < 16; ++i) {
    served::Client client = must_connect(options.unix_path);
    EXPECT_TRUE(client.ping().is_ok());
  }

  // Reaping rides the accept path: fresh probes sweep finished readers.
  // Bound is 2, not 1: the live probe plus at most the previous probe
  // whose EOF the server has not processed yet.
  std::size_t live = server.worker_count() + 16;
  for (int i = 0; i < 200 && live > 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    served::Client probe = must_connect(options.unix_path);
    EXPECT_TRUE(probe.ping().is_ok());
    live = server.live_connections();
  }
  EXPECT_LE(live, 2u);

  server.stop();
  cleanup(options);
}

TEST(ServedFleet, TcpModeServesAndReportsPort) {
  served::ServedOptions options;
  options.workers = 2;
  options.tcp_port = 0;  // ephemeral
  served::Server server(options);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.port(), 0);
  auto connected = served::Client::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.is_ok());
  served::Client client = std::move(connected).take();
  EXPECT_TRUE(client.ping().is_ok());
  auto a = client.call(Request::volume("0 <= x & x <= 1")
                           .vars({"x"})
                           .build());
  ASSERT_TRUE(a.is_ok());
  server.stop();
}

}  // namespace
}  // namespace cqa
