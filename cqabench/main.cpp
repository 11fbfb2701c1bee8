// cqabench: the benchmark binary. One process runs one workload for one
// seed, closed loop, and prints one JSON object on its last stdout line.
//
//   cqabench run --workload exact_cold --seed 1 --seconds 10 --trace 0
//                --out-dir .bench_build/run
//   cqabench fingerprints --workload served_mix --seed 1 --count 200
//
// Untraced runs (--trace 0) measure the end-to-end metrics. A traced run
// (--trace 1) calls the library's layers one public function at a time,
// timing each call in a span, and reports the per-layer metrics; it then
// replays the same requests untraced, and the ratio of the two times is
// the tracing overhead. See METRICS.md for every metric.

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/random.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/session.h"
#include "cqa/runtime/thread_pool.h"
#include "cqa/serve/scheduler.h"
#include "cqa/served/client.h"
#include "cqa/served/server.h"
#include "cqa/served/wire.h"
#include "trace.h"
#include "workload.h"

namespace cqabench {
namespace {

using cqa::Answer;
using cqa::Rational;
using cqa::Request;
using cqa::Result;
using cqa::Status;

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 11;
// A measured phase is cut into windows of about this length; the
// end-to-end figures are taken over the quiet ones (see mark_quiet).
constexpr double kWindowSeconds = 0.5;
// A window counts as quiet when the rest of the machine took less than
// this share of its CPU capacity (see mark_quiet).
constexpr double kLostShare = 0.05;
// The SpeedProbe time, in microseconds, that reported times are scaled
// to: about what the probe takes on a CPU of a 4-vCPU Xeon KVM guest
// whose host is quiet.
constexpr double kReferenceProbeUs = 25.0;
// peak_rss_mb is read once the measured phase has sent this many requests
// (or at its end), so it does not grow with the run's speed.
constexpr std::size_t kRssRequests = 2048;
// Count metrics of a traced run are taken over this fixed prefix of the
// request stream, so they repeat exactly for one seed.
constexpr std::size_t kCountPrefix = 24;
// Router disk-cache entries: more first occurrences than a run sends.
constexpr std::size_t kFleetCacheCapacity = std::size_t{1} << 18;
// At most this many exact_cold answers are recomputed with a second
// exact strategy (a seeded subset: about one request in eight).
constexpr std::size_t kSecondStrategyMax = 32;

// ---------------------------------------------------------------- args

struct Args {
  std::string mode;
  Workload workload = Workload::kExactCold;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::size_t count = 100;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      if (!parse_workload(v, &a->workload)) return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--count") {
      a->count = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return a->seconds > 0;
}

// ------------------------------------------------- process measurement

double self_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

// utime + stime of another process, from /proc/<pid>/stat.
double proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of a process in MiB; "self" for this one.
double proc_peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) / 1e9; }

std::size_t nproc();

/// Busy and steal time of the whole machine so far, in ms, from the first
/// line of /proc/stat: user nice system idle iowait irq softirq steal.
struct MachineTime {
  double busy_ms = 0, steal_ms = 0;
};

MachineTime machine_time() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  in >> cpu;
  for (double& x : f) in >> x;
  const double tick_ms = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return {(f[0] + f[1] + f[2] + f[5] + f[6]) * tick_ms, f[7] * tick_ms};
}

/// Moves the calling thread through every CPU it may use, one CPU per
/// next(). A lone busy thread otherwise stays on one CPU for a whole run,
/// and on a shared host the CPUs differ in speed by up to 15% and drift;
/// visiting each in turn makes a run measure the machine rather than one
/// placement. Threads started while pinned inherit the pin, so release()
/// before creating any. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (!cpus_.empty()) pin(cpus_[step_++ % cpus_.size()]);
  }
  /// Moves the calling thread to one CPU.
  static void pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }
  const std::vector<int>& cpus() const { return cpus_; }
  /// Index in cpus() of the CPU next() pinned the thread to last.
  std::size_t current() const {
    return cpus_.empty() ? 0 : (step_ + cpus_.size() - 1) % cpus_.size();
  }
  void release() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

/// Times a fixed piece of benchmark-side work on every CPU in turn. The
/// host's other tenants change this machine's CPU speed by a third and
/// more from one minute to the next, in a way the guest sees neither as
/// steal nor as load; every time the benchmark reports is scaled to a
/// reference speed by these timings (see speed_scale). The work,
/// ordered-map inserts of formatted numbers (allocation, pointer chasing,
/// branches), resembles the library's but never changes with it, and it
/// allocates only from a buffer of its own, so the library's heap cannot
/// slow it down.
class SpeedProbe {
 public:
  /// For each CPU of `cpus` in turn, the fastest of a few timings of the
  /// work there, in microseconds: the fastest, because the first timing
  /// on a CPU pays for cold caches and any timing may be preempted.
  /// Leaves the calling thread on the last CPU; the caller re-pins it.
  std::vector<double> measure(const CpuRotation& cpus) {
    if (cpus.cpus().empty()) return {measure_here()};
    std::vector<double> us;
    for (int cpu : cpus.cpus()) {
      CpuRotation::pin(cpu);
      us.push_back(measure_here());
    }
    return us;
  }
  static double mean(const std::vector<double>& us) {
    double sum = 0;
    for (double u : us) sum += u;
    return us.empty() ? 0 : sum / static_cast<double>(us.size());
  }
  /// The fastest of a few timings on the calling thread's current CPU.
  double measure_here() {
    double best = once();
    for (int rep = 1; rep < kReps; ++rep) best = std::min(best, once());
    return best;
  }

 private:
  static constexpr int kReps = 3;
  static constexpr int kInserts = 256;

  double once() {
    const std::int64_t t = now_ns();
    std::pmr::monotonic_buffer_resource arena(
        buffer_.data(), buffer_.size(), std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::pmr::string> m(&arena);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    char digits[24];
    for (int i = 0; i < kInserts; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto end = std::to_chars(digits, digits + sizeof digits, x).ptr;
      m.emplace(x >> 40, std::pmr::string(digits, end, &arena));
    }
    for (const auto& [k, v] : m) sink_ += k ^ v.size();
    return (now_ns() - t) / 1e3;
  }

  std::vector<std::byte> buffer_ = std::vector<std::byte>(std::size_t{1} << 16);
  std::uint64_t sink_ = 0;
};

/// Number of windows a measured phase of `seconds` is cut into.
int window_count(double seconds) {
  return std::max(8, static_cast<int>(std::lround(seconds / kWindowSeconds)));
}

/// True once per window of a phase: the in-process caller changes CPU
/// whenever it fires.
class Ticker {
 public:
  Ticker(std::int64_t t0, double seconds)
      : next_(t0), length_ns_(seconds / window_count(seconds) * 1e9) {
    next_ += length_ns_;
  }
  bool due() {
    if (now_ns() < next_) return false;
    next_ += length_ns_;
    return true;
  }

 private:
  std::int64_t next_;
  std::int64_t length_ns_;
};

/// One window of a measured phase.
struct Window {
  std::int64_t begin_ns = 0, end_ns = 0;
  /// CPU time of the benchmark process and every fleet worker.
  double own_cpu_ms = 0;
  /// CPU time the rest of the machine took meanwhile: steal (the host ran
  /// someone else on one of this machine's CPUs) plus the busy time of
  /// every other process.
  double lost_ms = 0;
  /// SpeedProbe time at the window's two ends, averaged: lower is a
  /// faster machine.
  double probe_us = 0;

  /// Scales a time measured in the window to the reference machine
  /// speed; rates are divided by it.
  double scale() const {
    return probe_us > 0 ? kReferenceProbeUs / probe_us : 1.0;
  }
  std::size_t requests = 0;
  bool quiet = false;
};

/// Samples the windows of a measured phase from a thread of its own that
/// sleeps between window boundaries. The machine's speed is probed at
/// every boundary: by that thread over every CPU when `probe` is set,
/// else by the caller through note_speed() between two of its requests,
/// on the CPUs it used before and uses after the boundary.
class WindowSampler {
 public:
  WindowSampler(std::function<double()> own_cpu_ms, double seconds,
                bool probe)
      : own_cpu_ms_(std::move(own_cpu_ms)),
        count_(window_count(seconds)),
        length_ns_(seconds / count_ * 1e9),
        probe_(probe) {}
  ~WindowSampler() { stop(); }
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;

  /// Starts the phase's first window at t0 (now or just before).
  void start(std::int64_t t0) {
    t0_ = t0;
    first_ = sample();
    first_.t = t0;
    thread_ = std::thread([this] { loop(); });
  }
  /// Records SpeedProbe times taken now: for the window that ends here
  /// and for the one that starts here.
  void note_speed(double ending, double starting) {
    std::lock_guard<std::mutex> lock(mu_);
    speeds_.push_back(Speed{now_ns(), ending, starting});
  }
  /// Ends the phase: the last window stretches to now.
  std::vector<Window> stop() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
      for (Window& w : windows_) {
        w.probe_us = (speed_at(w.begin_ns).starting +
                      speed_at(w.end_ns).ending) / 2;
      }
    }
    return windows_;
  }

 private:
  struct Sample {
    std::int64_t t = 0;
    double own = 0, busy = 0, steal = 0;
  };

  Sample sample() const {
    const MachineTime m = machine_time();
    return Sample{now_ns(), own_cpu_ms_(), m.busy_ms, m.steal_ms};
  }

  struct Speed {
    std::int64_t t = 0;
    double ending = 0, starting = 0;
  };

  /// The probe times recorded nearest to t.
  Speed speed_at(std::int64_t t) const {
    Speed best;
    std::int64_t gap = -1;
    for (const Speed& s : speeds_) {
      const std::int64_t d = s.t > t ? s.t - t : t - s.t;
      if (gap < 0 || d < gap) {
        gap = d;
        best = s;
      }
    }
    return best;
  }

  void loop() {
    using Clock = std::chrono::steady_clock;
    CpuRotation cpus;
    SpeedProbe probe;
    if (probe_) {
      const double us = SpeedProbe::mean(probe.measure(cpus));
      note_speed(us, us);
    }
    cpus.release();
    Sample prev = first_;
    std::unique_lock<std::mutex> lock(mu_);
    for (int k = 1;; ++k) {
      bool stopping;
      if (k <= count_) {
        const Clock::time_point at{
            std::chrono::nanoseconds(t0_ + k * length_ns_)};
        stopping = cv_.wait_until(lock, at, [this] { return stop_; });
      } else {
        cv_.wait(lock, [this] { return stop_; });
        stopping = true;
      }
      lock.unlock();
      const Sample s = sample();
      if (probe_) {
        const double us = SpeedProbe::mean(probe.measure(cpus));
        note_speed(us, us);
        cpus.release();
      }
      lock.lock();
      Window w;
      const bool extend = k > count_ && !windows_.empty();
      if (extend) {
        w = windows_.back();
        windows_.pop_back();
      } else {
        w.begin_ns = prev.t;
      }
      w.end_ns = s.t;
      const double own = s.own - prev.own;
      w.own_cpu_ms += own;
      w.lost_ms += (s.steal - prev.steal) +
                   std::max(0.0, (s.busy - prev.busy) - own);
      windows_.push_back(w);
      prev = s;
      if (stopping) return;
    }
  }

  std::function<double()> own_cpu_ms_;
  int count_;
  std::int64_t length_ns_;
  bool probe_;
  std::int64_t t0_ = 0;
  Sample first_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Window> windows_;
  std::vector<Speed> speeds_;
};

/// Marks the quiet windows: every window in which the rest of the machine
/// took less than kLostShare of its CPU capacity from the run, and at
/// least the half of the windows in which it took least. The host steals
/// CPU time in bursts that can cover many seconds; figures over the quiet
/// windows measure the program rather than its neighbours. Ties fall to
/// every other window, not to the first half.
void mark_quiet(std::vector<Window>* windows) {
  const std::size_t n = windows->size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  auto spread = [n](std::size_t i) { return (i % 2) * n + i; };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     const double lx = (*windows)[x].lost_ms;
                     const double ly = (*windows)[y].lost_ms;
                     return lx != ly ? lx < ly : spread(x) < spread(y);
                   });
  const double cpus = static_cast<double>(nproc());
  for (std::size_t i = 0; i < n; ++i) {
    Window& w = (*windows)[order[i]];
    const double capacity_ms = (w.end_ns - w.begin_ns) / 1e6 * cpus;
    w.quiet = i < (n + 1) / 2 || w.lost_ms < kLostShare * capacity_ms;
  }
}

/// Index of the window a request that completed at t belongs to.
std::size_t window_of(const std::vector<Window>& windows, std::int64_t t) {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](std::int64_t v, const Window& w) { return v < w.end_ns; });
  return std::min<std::size_t>(static_cast<std::size_t>(it - windows.begin()),
                               windows.size() - 1);
}

// ------------------------------------------------------------- output

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// An ordered JSON object under construction.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    return raw(k, json_num(v));
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  JsonObject& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_str(k) + ": " + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------ answers

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

/// Equality of everything an answer asserts: exact rationals equal,
/// Monte-Carlo estimates and bars bitwise equal, same truth and status.
bool same_answer(const Answer& a, const Answer& b) {
  if (a.kind != b.kind || a.status != b.status || a.truth != b.truth) {
    return false;
  }
  const cqa::VolumeAnswer& x = a.volume;
  const cqa::VolumeAnswer& y = b.volume;
  return x.exact == y.exact && same_bits(x.estimate, y.estimate) &&
         same_bits(x.lower, y.lower) && same_bits(x.upper, y.upper) &&
         x.degraded == y.degraded &&
         x.points_evaluated == y.points_evaluated &&
         x.points_requested == y.points_requested;
}

/// Why an answer counts against error_frac ("" when it does not): a
/// failed, degraded or shed request, or an exact-family answer without an
/// exact value. Bars that miss a closed-form volume are counted apart
/// (see Report::add): an (epsilon, delta) certificate allows a share
/// delta of them.
std::string answer_problem(const BenchRequest& b, const Result<Answer>& r) {
  if (!r.is_ok()) return "failed: " + r.status().to_string();
  const Answer& a = r.value();
  if (a.guard.shed) return "shed";
  if (a.degraded()) return "degraded";
  if (b.request.kind == cqa::RequestKind::kAsk) {
    return a.truth ? "" : "ask answer without a truth value";
  }
  if (b.family.rfind("exact.", 0) == 0 && !a.volume.exact) {
    return "exact family answered without an exact volume";
  }
  if (b.truth && (!a.volume.lower || !a.volume.upper)) {
    return "approximate answer without bars";
  }
  return "";
}

bool bars_miss_truth(const BenchRequest& b, const Answer& a) {
  return b.truth && a.volume.lower && a.volume.upper &&
         (*b.truth < *a.volume.lower || *b.truth > *a.volume.upper);
}

double bar_width(const Result<Answer>& r) {
  if (!r.is_ok() || r.value().kind != cqa::RequestKind::kVolume) return 0;
  const cqa::VolumeAnswer& v = r.value().volume;
  if (v.exact || !v.lower || !v.upper) return 0;
  return *v.upper - *v.lower;
}

/// Outcomes of one phase (warm-up or measured).
struct Tally {
  std::size_t sent = 0, succeeded = 0, failed = 0, degraded = 0;
  std::size_t errors = 0;  // everything that counts against error_frac

  void add(const std::string& problem, const Result<Answer>& r) {
    ++sent;
    if (!r.is_ok()) {
      ++failed;
    } else if (r.value().degraded() || r.value().guard.shed) {
      ++degraded;
    } else {
      ++succeeded;
    }
    if (!problem.empty()) ++errors;
  }
  std::string json() const {
    return JsonObject()
        .num("sent", sent)
        .num("succeeded", succeeded)
        .num("failed", failed)
        .num("degraded", degraded)
        .num("errors", errors)
        .dump();
  }
};

/// What one run reports; printed as one JSON object.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  Tally warmup, measured;
  std::size_t extra_errors = 0;  // failed gate checks outside the answers
  std::vector<std::string> messages;
  double bar_width_sum = 0;
  std::size_t shapes = 0, misses = 0;  // closed-form volumes and bar misses
  JsonObject sizing;
  std::map<std::string, std::size_t> families;
  /// Measured latencies per family; served repeats apart.
  std::map<std::string, std::vector<double>> family_ms;
  /// [seconds, requests, own CPU ms, lost CPU ms, probe us, quiet] per
  /// window.
  std::string windows = "[]";
  /// The typical factor that scaled measured times (see speed_scale).
  double speed_scale = 1.0;
  /// The end-to-end figures over the quiet windows as measured, before
  /// scaling, and over the whole measured phase.
  std::string quiet_raw = "{}";
  std::string whole_run = "{}";
  std::vector<double> setup;   // seconds per set-up repetition

  /// Accounts one measured answer.
  void add(long index, const BenchRequest& b, const Result<Answer>& r) {
    const std::string problem = answer_problem(b, r);
    measured.add(problem, r);
    note_problem(index, problem);
    bar_width_sum += bar_width(r);
    ++families[b.family];
    if (b.truth && r.is_ok()) {
      ++shapes;
      if (bars_miss_truth(b, r.value())) {
        ++misses;
        note_problem(index, "bars miss the closed-form volume " +
                                json_num(*b.truth));
      }
    }
  }
  /// Gate: bars may miss a closed-form volume at most at the rate delta
  /// the certificate allows.
  void check_coverage() {
    if (static_cast<double>(misses) >
        kMcDelta * static_cast<double>(shapes)) {
      error(std::to_string(misses) + " of " + std::to_string(shapes) +
            " closed-form volumes fall outside their bars");
    }
  }
  double bar_width_mean() const {
    return measured.sent ? bar_width_sum / static_cast<double>(measured.sent)
                         : 0;
  }

  void latency(const BenchRequest& b, double ms) {
    family_ms[b.repeat_of < 0 ? b.family : b.family + ".repeat"].push_back(ms);
  }
  std::string family_latency_json() const {
    JsonObject out;
    for (const auto& [k, v] : family_ms) {
      out.raw(k, JsonObject()
                     .num("n", v.size())
                     .num("p50", percentile(v, 0.5))
                     .num("p99", percentile(v, 0.99))
                     .dump());
    }
    return out.dump();
  }

  void metric(const std::string& name, double v) {
    metrics.emplace_back(name, v);
  }
  void error(const std::string& what) {
    ++extra_errors;
    if (messages.size() < 20) messages.push_back(what);
  }
  void note_problem(long index, const std::string& problem) {
    if (!problem.empty() && messages.size() < 20) {
      messages.push_back("request " + std::to_string(index) + ": " + problem);
    }
  }
  std::size_t failed() const { return measured.errors + extra_errors; }
  double error_frac() const {
    return measured.sent == 0
               ? 1.0
               : static_cast<double>(failed()) /
                     static_cast<double>(measured.sent);
  }
};

// --------------------------------------------------------- environment

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

#ifndef CQABENCH_BUILD_TYPE
#define CQABENCH_BUILD_TYPE "unknown"
#endif
#ifndef CQABENCH_CXX_FLAGS
#define CQABENCH_CXX_FLAGS "unknown"
#endif

std::string env_json(const JsonObject& sizing) {
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return JsonObject()
      .num("nproc", nproc())
      .str("compiler", compiler)
      .str("cxx_flags", CQABENCH_CXX_FLAGS)
      .str("build_type", CQABENCH_BUILD_TYPE)
      .boolean("optimized", optimized)
      .boolean("ndebug", ndebug)
      .raw("sizing", sizing.dump())
      .dump();
}

// ------------------------------------------------ in-process workloads

cqa::SessionOptions in_process_options() {
  // The caller takes part in every parallel_for, so caller plus pool use
  // at most nproc threads; half of nproc leaves the system a core, and
  // Monte-Carlo latency then does not hinge on who else is scheduled.
  cqa::SessionOptions o;
  o.threads = std::max<std::size_t>(1, nproc() / 2);
  return o;
}

bool is_exact_strategy(cqa::VolumeStrategy s) {
  return s == cqa::VolumeStrategy::kAuto ||
         s == cqa::VolumeStrategy::kExactSweep ||
         s == cqa::VolumeStrategy::kInclusionExclusion ||
         s == cqa::VolumeStrategy::kVariableIndependent;
}

struct Record {
  long index = 0;
  BenchRequest req;
  Result<Answer> result = Status::internal("not run");
  double latency_ms = 0;
  std::int64_t done_ns = 0;
};

/// Builds a fresh Session and runs the fixed warm-up set through it, the
/// warm-up on the rotation's next CPU. Returns the elapsed seconds at the
/// reference machine speed: scaled by the SpeedProbe on that CPU, timed
/// just before and after the warm-up and left out of the elapsed time.
double in_process_setup(Workload w, CpuRotation* cpus,
                        std::unique_ptr<cqa::ConstraintDatabase>* db,
                        std::unique_ptr<cqa::Session>* session, Tally* tally,
                        Report* report) {
  SpeedProbe probe;
  session->reset();
  db->reset();
  cpus->release();
  const std::int64_t t0 = now_ns();
  *db = std::make_unique<cqa::ConstraintDatabase>();
  *session = std::make_unique<cqa::Session>(db->get(), in_process_options());
  const double build_s = seconds_since(t0);
  cpus->next();
  const double before = probe.measure_here();
  const std::int64_t t1 = now_ns();
  for (const BenchRequest& b : warmup_set(w)) {
    Result<Answer> r = (*session)->run(b.request);
    const std::string problem = answer_problem(b, r);
    tally->add(problem, r);
    if (!problem.empty()) report->error("warm-up: " + problem);
  }
  const double warm_s = seconds_since(t1);
  const double after = probe.measure_here();
  return (build_s + warm_s) * 2 * kReferenceProbeUs / (before + after);
}

/// Gate: requests of a cold workload are distinct, so no answer may come
/// from an EvalCache entry another request stored. The one hit a
/// quantified request may make on its own planner rewrite is not such a
/// hit. Returns the cross-request hit count.
std::uint64_t cross_request_hits(const cqa::CacheStats& rw0,
                                 const cqa::CacheStats& vol0,
                                 const cqa::EvalCache& cache,
                                 std::size_t quantified) {
  const std::uint64_t rw = cache.rewrite_stats().hits - rw0.hits;
  const std::uint64_t vol = cache.volume_stats().hits - vol0.hits;
  return vol + (rw > quantified ? rw - quantified : 0);
}

/// Counts each window's completed requests and marks the quiet ones.
void settle_windows(std::vector<Window>* windows,
                    const std::vector<Record>& records) {
  for (const Record& r : records) {
    ++(*windows)[window_of(*windows, r.done_ns)].requests;
  }
  mark_quiet(windows);
}

/// The end-to-end figures of a measured phase, over its quiet windows or
/// over the whole phase. Requests count in the window they completed in.
struct Figures {
  double throughput_rps = 0, p50_ms = 0, p99_ms = 0, cpu_ms_per_req = 0;
  double requests = 0, seconds = 0;

  /// `scaled`: every time at the reference machine speed, by the
  /// scale of the window it was measured in.
  Figures(const std::vector<Window>& windows,
          const std::vector<Record>& records, bool quiet_only, bool scaled) {
    double cpu_ms = 0;
    for (const Window& w : windows) {
      if (quiet_only && !w.quiet) continue;
      const double f = scaled ? w.scale() : 1.0;
      seconds += (w.end_ns - w.begin_ns) / 1e9 * f;
      cpu_ms += w.own_cpu_ms * f;
    }
    std::vector<double> lat;
    for (const Record& r : records) {
      const Window& w = windows[window_of(windows, r.done_ns)];
      if (!quiet_only || w.quiet) {
        lat.push_back(r.latency_ms * (scaled ? w.scale() : 1.0));
      }
    }
    requests = static_cast<double>(lat.size());
    throughput_rps = seconds > 0 ? requests / seconds : 0;
    p50_ms = percentile(lat, 0.5);
    p99_ms = percentile(lat, 0.99);
    cpu_ms_per_req = requests > 0 ? cpu_ms / requests : 0;
  }

  std::string json() const {
    return JsonObject()
        .num("throughput_rps", throughput_rps)
        .num("latency_p50_ms", p50_ms)
        .num("latency_p99_ms", p99_ms)
        .num("cpu_ms_per_req", cpu_ms_per_req)
        .num("requests", requests)
        .num("seconds", seconds)
        .dump();
  }
};

/// The typical factor that scaled the phase's times to the reference
/// machine speed: kReferenceProbeUs over the median SpeedProbe time of
/// its windows.
double speed_scale(const std::vector<Window>& windows) {
  std::vector<double> probe;
  for (const Window& w : windows) {
    if (w.probe_us > 0) probe.push_back(w.probe_us);
  }
  return probe.empty() ? 1.0 : kReferenceProbeUs / percentile(probe, 0.5);
}

/// Reports the phase's throughput, latency and CPU metrics over its quiet
/// windows at the reference machine speed, and lists every window.
void report_phase(std::vector<Window> windows,
                  const std::vector<Record>& records, Report* report) {
  settle_windows(&windows, records);
  const Figures quiet(windows, records, true, true);
  report->metric("throughput_rps", quiet.throughput_rps);
  report->metric("latency_p50_ms", quiet.p50_ms);
  report->metric("latency_p99_ms", quiet.p99_ms);
  report->metric("cpu_ms_per_req", quiet.cpu_ms_per_req);
  report->speed_scale = speed_scale(windows);
  report->quiet_raw = Figures(windows, records, true, false).json();
  report->whole_run = Figures(windows, records, false, false).json();
  std::string rows;
  for (const Window& w : windows) {
    rows += std::string(rows.empty() ? "" : ", ") + "[" +
            json_num((w.end_ns - w.begin_ns) / 1e9) + ", " +
            json_num(static_cast<double>(w.requests)) + ", " +
            json_num(w.own_cpu_ms) + ", " + json_num(w.lost_ms) + ", " +
            json_num(w.probe_us) + ", " + (w.quiet ? "1" : "0") + "]";
  }
  report->windows = "[" + rows + "]";
}

void check_distinct_fingerprints(const std::vector<Record>& records,
                                 Report* report) {
  std::set<std::string> seen;
  for (const Record& r : records) {
    if (!seen.insert(cqa::serve::request_fingerprint(r.req.request)).second) {
      report->error("repeated fingerprint in a cold workload at request " +
                    std::to_string(r.index));
    }
  }
}

// A second exact strategy on a seeded subset of exact_cold must agree.
void check_second_strategy(const std::vector<Record>& records,
                           std::uint64_t seed, Report* report) {
  cqa::ConstraintDatabase db;
  cqa::VolumeEngine engine(&db);
  std::size_t checked = 0;
  for (const Record& r : records) {
    if (checked == kSecondStrategyMax) break;
    if (((static_cast<std::uint64_t>(r.index) + 1) * 0x9E3779B97F4A7C15ULL ^
         seed) % 8 != 0) {
      continue;
    }
    if (!r.result.is_ok() || !r.result.value().volume.exact) continue;
    const auto& plan = r.result.value().plan;
    cqa::VolumeOptions vo;
    const bool chose_ie =
        plan && plan->chosen == cqa::VolumeStrategy::kInclusionExclusion;
    vo.strategy = chose_ie ? cqa::VolumeStrategy::kExactSweep
                           : cqa::VolumeStrategy::kInclusionExclusion;
    auto v = engine.volume(r.req.request.query, r.req.request.output_vars, vo);
    ++checked;
    if (!v.is_ok() || !v.value().exact ||
        !(*v.value().exact == *r.result.value().volume.exact)) {
      report->error("second exact strategy disagrees on request " +
                    std::to_string(r.index));
    }
  }
  report->sizing.num("second_strategy_checked", checked);
}

void run_in_process(const Args& a, Report* report) {
  std::unique_ptr<cqa::ConstraintDatabase> db;
  std::unique_ptr<cqa::Session> session;
  std::vector<double> setup;
  CpuRotation cpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.push_back(in_process_setup(a.workload, &cpus, &db, &session,
                                     &report->warmup, report));
  }

  Generator gen(a.workload, a.seed);
  std::vector<Record> records;
  std::size_t quantified = 0;
  double rss = -1;
  const cqa::CacheStats rw0 = session->cache().rewrite_stats();
  const cqa::CacheStats vol0 = session->cache().volume_stats();
  // The caller probes the machine between two requests, so no probe
  // lands inside a request; the sampler thread starts unpinned.
  WindowSampler sampler(self_cpu_ms, a.seconds, false);
  SpeedProbe probe;
  cpus.release();
  const std::int64_t t0 = now_ns();
  sampler.start(t0);
  // At each boundary: the probe on the CPU the ending window used and on
  // the one the next window uses.
  auto boundary = [&](bool more) {
    const std::vector<double> us = probe.measure(cpus);
    const double ending = us[cpus.current()];
    if (more) cpus.next();
    sampler.note_speed(ending, us[cpus.current()]);
  };
  boundary(true);
  Ticker rotate(t0, a.seconds);
  while (seconds_since(t0) < a.seconds) {
    Record rec;
    rec.index = static_cast<long>(records.size());
    rec.req = gen.next();
    const std::int64_t s = now_ns();
    rec.result = session->run(rec.req.request);
    rec.done_ns = now_ns();
    rec.latency_ms = (rec.done_ns - s) / 1e6;
    quantified += rec.req.quantified ? 1 : 0;
    records.push_back(std::move(rec));
    if (records.size() == kRssRequests) rss = proc_peak_rss_mb("self");
    if (rotate.due()) boundary(true);
  }
  boundary(false);
  std::vector<Window> windows = sampler.stop();
  cpus.release();
  if (rss < 0) rss = proc_peak_rss_mb("self");

  // Everything below is outside the measured phase.
  const std::uint64_t cross =
      cross_request_hits(rw0, vol0, session->cache(), quantified);
  if (cross != 0) {
    report->error("cold workload saw " + std::to_string(cross) +
                  " cross-request EvalCache hits");
  }
  check_distinct_fingerprints(records, report);
  if (a.workload == Workload::kExactCold) {
    check_second_strategy(records, a.seed, report);
  }

  for (const Record& r : records) {
    report->add(r.index, r.req, r.result);
    report->latency(r.req, r.latency_ms);
  }
  report_phase(std::move(windows), records, report);
  report->metric("setup_s", percentile(setup, 0.5));
  report->metric("peak_rss_mb", rss);
  report->setup = setup;
  report->sizing.num("pool_threads", session->pool().size())
      .num("callers", 1)
      .num("setup_reps", kSetupReps);
}

// ---------------------------------------- traced in-process pipeline

/// A rewrite cache holding only the current request's rewrite, so the
/// engine's own internal rewrite is a hit and volume.exact_ms excludes it.
class OneRequestCache : public cqa::RewriteCache {
 public:
  std::optional<cqa::FormulaPtr> lookup(const std::string& key) override {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  void store(const std::string& key, const cqa::FormulaPtr& v) override {
    map_[key] = v;
  }

 private:
  std::map<std::string, cqa::FormulaPtr> map_;
};

/// Per-request outcome of the decomposed pipeline.
struct LayerRecord {
  std::optional<Rational> exact;
  std::optional<double> estimate;
  bool routed_exact = false;
  double cost_ratio = 0;  // engine ns / predicted ns of the chosen plan
  cqa::guard::GuardUsage usage;
  std::uint64_t heap_nodes = 0;
  std::size_t lin_atoms = 0, fallback_atoms = 0;
  std::size_t points = 0;
  std::int64_t kernel_ns = 0, sample_ns = 0;
};

/// Runs one volume request the way Session::run does, but one public
/// layer call at a time, each inside a span.
Result<LayerRecord> decomposed(cqa::ConstraintDatabase* db,
                               cqa::ThreadPool* pool, const BenchRequest& b,
                               long index, Tracer* tr) {
  const Request& req = b.request;
  LayerRecord out;
  ScopedSpan root(tr, "request", -1, index);
  const std::int64_t parent = root.handle();

  cqa::FormulaPtr parsed;
  {
    ScopedSpan s(tr, "logic.parse", parent, index);
    auto p = db->parse(req.query);
    if (!p.is_ok()) return p.status();
    parsed = p.value();
  }

  cqa::guard::WorkMeter meter(cqa::guard::ResourceQuota::unlimited());
  cqa::guard::MeterScope meter_scope(&meter);
  OneRequestCache cache;
  cqa::VolumeEngine engine(db);
  engine.queries().set_cache(&cache);
  cqa::RewriteOptions rw;
  rw.meter = &meter;
  cqa::FormulaPtr rewritten;
  {
    ScopedSpan s(tr, "constraint.rewrite", parent, index);
    auto r = engine.queries().rewrite(req.query, rw);
    if (!r.is_ok()) return r.status();
    rewritten = r.value();
  }

  cqa::PlanDecision decision;
  {
    ScopedSpan s(tr, "plan.plan", parent, index);
    cqa::FormulaStats stats = cqa::extract_stats(
        rewritten, req.output_vars.size(), parsed->count_quantifiers());
    decision = cqa::plan_volume(stats, req.budget);
  }
  double predicted_ns = 0;
  for (const auto& c : decision.considered) {
    if (c.strategy == decision.chosen) predicted_ns = c.predicted_ns;
  }

  std::int64_t engine_ns = 0;
  if (is_exact_strategy(decision.chosen)) {
    out.routed_exact = true;
    cqa::VolumeOptions vo;
    vo.strategy = decision.chosen;
    vo.epsilon = req.budget.epsilon;
    vo.delta = req.budget.delta;
    vo.seed = req.seed;
    vo.meter = &meter;
    ScopedSpan s(tr, "volume.volume", parent, index);
    auto v = engine.volume(req.query, req.output_vars, vo);
    engine_ns = s.close();
    if (!v.is_ok()) return v.status();
    out.exact = v.value().exact;
  } else if (decision.chosen == cqa::VolumeStrategy::kMonteCarlo) {
    std::vector<std::size_t> element_vars;
    for (const auto& name : req.output_vars) {
      element_vars.push_back(db->var(name));
    }
    std::optional<cqa::CompiledMembership> compiled;
    {
      ScopedSpan s(tr, "approx.compile", parent, index);
      auto c = cqa::CompiledMembership::compile(rewritten, element_vars,
                                                &meter);
      if (!c.is_ok()) return c.status();
      compiled = std::move(c).take();
    }
    out.lin_atoms = compiled->linear_atom_count();
    out.fallback_atoms = compiled->fallback_atom_count();
    auto binding = compiled->bind({});
    if (!binding.is_ok()) return binding.status();
    {
      // Single-thread kernel over the planned sample size.
      cqa::Xoshiro rng(req.seed);
      ScopedSpan s(tr, "approx.kernel", parent, index);
      auto hits = compiled->count_hits_stream(binding.value(), &rng,
                                              decision.mc_samples);
      out.kernel_ns = s.close();
      if (!hits.is_ok()) return hits.status();
    }
    cqa::ParallelSampler sampler(&db->db(), rewritten, element_vars,
                                 decision.mc_samples, req.seed,
                                 cqa::SessionOptions{}.mc_chunk_size, &meter);
    ScopedSpan s(tr, "runtime.sample", parent, index);
    auto p = sampler.estimate_partial({}, pool, nullptr);
    out.sample_ns = engine_ns = s.close();
    if (!p.is_ok()) return p.status();
    out.estimate = p.value().estimate;
    out.points = p.value().evaluated;
  } else {
    return Status::internal(std::string("unexpected strategy ") +
                            cqa::strategy_name(decision.chosen));
  }
  out.cost_ratio =
      predicted_ns > 0 ? static_cast<double>(engine_ns) / predicted_ns : 0;
  out.usage = meter.usage();
  out.heap_nodes = meter.bigint_heap_nodes();
  return out;
}

/// Per-layer metrics a workload's traced run cannot observe report 0:
/// the served layers in process, the engine layers behind the fleet.
void zero_metrics(Report* report, const std::vector<const char*>& names) {
  for (const char* n : names) report->metric(n, 0);
}

const std::vector<const char*> kServedOnly = {
    "serve.queue_wait_ms", "serve.coalesced_frac", "serve.batched_frac",
    "serve.shed_frac",     "served.hop_ms",        "served.wire_us",
    "served.wire_bytes",   "served.router_hit_frac", "served.retries"};

const std::vector<const char*> kEngineOnly = {
    "logic.parse_us",         "constraint.rewrite_ms",
    "constraint.qe_atoms",    "constraint.fm_rows_peak",
    "volume.exact_ms",        "volume.sweep_sections",
    "arith.bigint_bits_peak", "arith.heap_nodes",
    "plan.plan_us",           "plan.cost_ratio",
    "approx.compile_us",      "approx.fallback_atom_frac",
    "approx.kernel_ns_per_pt", "runtime.sample_ms",
    "runtime.pool_speedup"};

double mean_self(const std::map<std::string, SelfTime>& st,
                 const std::string& name, double unit_ns) {
  auto it = st.find(name);
  if (it == st.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.self_ns) /
         static_cast<double>(it->second.count) / unit_ns;
}

void trace_in_process(const Args& a, Report* report) {
  // Phase 1: the decomposed pipeline, traced, for half the run time and
  // at least the count prefix.
  Tracer tracer(true);
  cqa::ConstraintDatabase db;
  cqa::ThreadPool pool(in_process_options().threads);
  {
    // Warm the same code paths the untraced run warms in its set-up.
    Tracer off(false);
    for (const BenchRequest& b : warmup_set(a.workload)) {
      (void)decomposed(&db, &pool, b, -1, &off);
    }
  }
  Generator gen(a.workload, a.seed);
  std::vector<BenchRequest> reqs;
  std::vector<Result<LayerRecord>> layers;
  // The caller changes CPU at the same request indices in both phases.
  CpuRotation cpus;
  std::vector<std::size_t> moves;
  cpus.next();
  const std::int64_t t0 = now_ns();
  Ticker rotate(t0, a.seconds / 2);
  while (seconds_since(t0) < a.seconds / 2 || reqs.size() < kCountPrefix) {
    reqs.push_back(gen.next());
    layers.push_back(decomposed(&db, &pool, reqs.back(),
                                static_cast<long>(reqs.size() - 1), &tracer));
    if (rotate.due()) {
      moves.push_back(reqs.size());
      cpus.next();
    }
  }
  const double traced_s = seconds_since(t0);
  cpus.release();

  // Phase 2: the same requests through Session::run, untraced.
  std::unique_ptr<cqa::ConstraintDatabase> sdb;
  std::unique_ptr<cqa::Session> session;
  Tally warm;
  CpuRotation replay_cpus;
  in_process_setup(a.workload, &replay_cpus, &sdb, &session, &warm, report);
  replay_cpus.release();
  replay_cpus.next();
  report->warmup = warm;
  const cqa::CacheStats rw0 = session->cache().rewrite_stats();
  const cqa::CacheStats vol0 = session->cache().volume_stats();
  std::vector<Result<Answer>> answers;
  std::size_t quantified = 0;
  std::size_t next_move = 0;
  const std::int64_t t1 = now_ns();
  for (const BenchRequest& b : reqs) {
    answers.push_back(session->run(b.request));
    quantified += b.quantified ? 1 : 0;
    if (next_move < moves.size() && answers.size() == moves[next_move]) {
      ++next_move;
      replay_cpus.next();
    }
  }
  const double untraced_s = seconds_since(t1);
  replay_cpus.release();
  const std::uint64_t cross =
      cross_request_hits(rw0, vol0, session->cache(), quantified);
  if (cross != 0) {
    report->error("cold workload saw " + std::to_string(cross) +
                  " cross-request EvalCache hits");
  }

  // The decomposition must compute what Session::run computes.
  std::size_t exact_routed = 0, volume_reqs = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    report->add(static_cast<long>(i), reqs[i], answers[i]);
    if (!layers[i].is_ok()) {
      report->error("decomposed pipeline failed on request " +
                    std::to_string(i) + ": " +
                    layers[i].status().to_string());
      continue;
    }
    const LayerRecord& l = layers[i].value();
    ++volume_reqs;
    exact_routed += l.routed_exact ? 1 : 0;
    if (answers[i].is_ok()) {
      const cqa::VolumeAnswer& v = answers[i].value().volume;
      if (v.exact != l.exact || !same_bits(v.estimate, l.estimate)) {
        report->error("decomposed pipeline disagrees with Session::run on "
                      "request " + std::to_string(i));
      }
    }
  }

  // Counts over the fixed prefix; times over every traced request.
  double qe_atoms = 0, sweeps = 0, heap = 0, points = 0;
  std::uint64_t fm_peak = 0, bits_peak = 0;
  std::size_t lin = 0, fallback = 0;
  for (std::size_t i = 0; i < kCountPrefix; ++i) {
    if (!layers[i].is_ok()) continue;
    const LayerRecord& l = layers[i].value();
    qe_atoms += static_cast<double>(l.usage.qe_atoms);
    sweeps += static_cast<double>(l.usage.sweep_sections);
    heap += static_cast<double>(l.heap_nodes);
    points += static_cast<double>(l.points);
    fm_peak = std::max<std::uint64_t>(fm_peak, l.usage.fm_rows_peak);
    bits_peak = std::max<std::uint64_t>(bits_peak, l.usage.bigint_bits_peak);
    lin += l.lin_atoms;
    fallback += l.fallback_atoms;
  }
  const double prefix = static_cast<double>(kCountPrefix);
  std::vector<double> ratios;
  std::int64_t kernel_ns = 0, sample_ns = 0;
  double kernel_points = 0;
  for (const auto& l : layers) {
    if (!l.is_ok()) continue;
    ratios.push_back(l.value().cost_ratio);
    kernel_ns += l.value().kernel_ns;
    sample_ns += l.value().sample_ns;
    kernel_points += static_cast<double>(l.value().points);
  }

  const auto st = self_times({&tracer});
  report->metric("logic.parse_us", mean_self(st, "logic.parse", 1e3));
  report->metric("constraint.rewrite_ms",
                 mean_self(st, "constraint.rewrite", 1e6));
  report->metric("constraint.qe_atoms", qe_atoms / prefix);
  report->metric("constraint.fm_rows_peak", static_cast<double>(fm_peak));
  report->metric("volume.exact_ms", mean_self(st, "volume.volume", 1e6));
  report->metric("volume.sweep_sections", sweeps / prefix);
  report->metric("arith.bigint_bits_peak", static_cast<double>(bits_peak));
  report->metric("arith.heap_nodes", heap / prefix);
  report->metric("plan.plan_us", mean_self(st, "plan.plan", 1e3));
  report->metric("plan.exact_share",
                 volume_reqs ? static_cast<double>(exact_routed) /
                                   static_cast<double>(volume_reqs)
                             : 0);
  report->metric("plan.cost_ratio", percentile(ratios, 0.5));
  report->metric("approx.compile_us", mean_self(st, "approx.compile", 1e3));
  report->metric("approx.fallback_atom_frac",
                 lin + fallback ? static_cast<double>(fallback) /
                                      static_cast<double>(lin + fallback)
                                : 0);
  report->metric("approx.kernel_ns_per_pt",
                 kernel_points > 0 ? kernel_ns / kernel_points : 0);
  report->metric("runtime.sample_ms", mean_self(st, "runtime.sample", 1e6));
  report->metric("runtime.pool_speedup",
                 sample_ns > 0 ? static_cast<double>(kernel_ns) /
                                     static_cast<double>(sample_ns)
                               : 0);
  report->metric("runtime.points_per_req", points / prefix);
  report->metric("runtime.cache_hit_frac",
                 static_cast<double>(cross) / static_cast<double>(reqs.size()));
  zero_metrics(report, kServedOnly);
  report->metric("trace.overhead", traced_s / untraced_s);

  const std::string path = a.out_dir + "/trace-" + workload_name(a.workload) +
                           "-" + std::to_string(a.seed) + ".json";
  if (!write_trace(path, {&tracer})) report->error("cannot write " + path);
  report->sizing.str("trace_file", path)
      .num("traced_requests", static_cast<double>(reqs.size()))
      .num("pool_threads", pool.size())
      .num("callers", 1);
}

// ------------------------------------------------------ served fleet

struct FleetSizing {
  std::size_t workers, pool_threads, executors, connections;
};

FleetSizing fleet_sizing() {
  // Worker processes x (pool threads + executors) <= nproc, and one
  // closed-loop connection per worker.
  const std::size_t workers = std::max<std::size_t>(1, nproc() / 2);
  return FleetSizing{workers, 1, 1, workers};
}

struct Fleet {
  std::unique_ptr<cqa::served::Server> server;
  std::vector<cqa::served::Client> clients;
  std::string sock, cache;
};

void remove_fleet_files(const Fleet& f, std::size_t workers) {
  std::remove(f.sock.c_str());
  std::remove(f.cache.c_str());
  for (std::size_t i = 0; i < workers; ++i) {
    std::remove((f.cache + ".volumes.shard" + std::to_string(i)).c_str());
  }
}

void stop_fleet(Fleet* f) {
  if (!f->server) return;
  f->clients.clear();
  f->server->stop();
  remove_fleet_files(*f, f->server->worker_count());
  f->server.reset();
}

/// Starts a fleet on a fresh socket and disk-cache file, connects one
/// client per connection and pings each.
Status start_fleet(Fleet* f, const std::string& dir, int tag) {
  const FleetSizing z = fleet_sizing();
  f->sock = dir + "/fleet" + std::to_string(tag) + ".sock";
  f->cache = dir + "/fleet" + std::to_string(tag) + ".cache";
  remove_fleet_files(*f, z.workers);
  cqa::served::ServedOptions o;
  o.workers = z.workers;
  o.unix_path = f->sock;
  o.cache_path = f->cache;
  // A full DiskCache refuses new entries instead of evicting, so at the
  // default capacity the router would stop absorbing repeats part-way
  // through a run, at a point that depends on the run's own speed. Size
  // it to hold every answer of a run.
  o.cache_capacity = kFleetCacheCapacity;
  o.session.threads = z.pool_threads;
  o.session.serve_executors = z.executors;
  f->server = std::make_unique<cqa::served::Server>(o);
  Status s = f->server->start();
  if (!s.is_ok()) return s;
  for (std::size_t i = 0; i < z.connections; ++i) {
    auto c = cqa::served::Client::connect_unix(f->sock);
    if (!c.is_ok()) return c.status();
    f->clients.push_back(std::move(c).take());
    Status p = f->clients.back().ping();
    if (!p.is_ok()) return p;
  }
  return Status::ok();
}

/// Starts a fleet and runs the fixed warm-up set through it. Returns the
/// elapsed seconds at the reference machine speed: scaled by the
/// SpeedProbe over every CPU, timed just before and after.
double served_setup(Fleet* f, const std::string& dir, int tag, Tally* tally,
                    Report* report) {
  stop_fleet(f);
  SpeedProbe probe;
  CpuRotation cpus;
  const double before = SpeedProbe::mean(probe.measure(cpus));
  cpus.release();
  const std::int64_t t0 = now_ns();
  Status s = start_fleet(f, dir, tag);
  if (!s.is_ok()) {
    report->error("fleet start failed: " + s.to_string());
    return seconds_since(t0);
  }
  for (const BenchRequest& b : warmup_set(Workload::kServedMix)) {
    Result<Answer> r = f->clients[0].call(b.request);
    const std::string problem = answer_problem(b, r);
    tally->add(problem, r);
    if (!problem.empty()) report->error("warm-up: " + problem);
  }
  const double elapsed = seconds_since(t0);
  const double after = SpeedProbe::mean(probe.measure(cpus));
  cpus.release();
  return elapsed * 2 * kReferenceProbeUs / (before + after);
}

/// Summed "name value" lines of a stats dump (router counters plus every
/// worker's metrics registry).
std::map<std::string, double> fleet_counters(Fleet* f) {
  std::map<std::string, double> out;
  auto text = f->clients[0].stats();
  if (!text.is_ok()) return out;
  std::istringstream in(text.value());
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, value, extra;
    if (fields >> name >> value && !(fields >> extra)) {
      out[name] += std::atof(value.c_str());
    }
  }
  return out;
}

/// CPU time of this process and the given fleet workers.
double fleet_cpu_ms(const std::vector<pid_t>& workers) {
  double ms = self_cpu_ms();
  for (pid_t p : workers) ms += proc_cpu_ms(p);
  return ms;
}

double fleet_peak_rss_mb(const Fleet& f) {
  double mb = proc_peak_rss_mb("self");
  for (std::size_t i = 0; i < f.server->worker_count(); ++i) {
    mb += proc_peak_rss_mb(std::to_string(f.server->worker_pid(i)));
  }
  return mb;
}

/// Wire-codec and hop observations of one traced served request.
struct WireRecord {
  std::size_t bytes = 0;
  double hop_ms = -1;  // first occurrences only
};

/// Closed loop over every client connection: each thread sends its next
/// request only after the previous answer arrived. `next` hands out
/// (index, request) pairs and returns false when the phase is over.
std::vector<Record> drive(
    Fleet* f, const std::function<bool(long*, BenchRequest*)>& next,
    std::vector<std::unique_ptr<Tracer>>* tracers,
    std::vector<WireRecord>* wire) {
  std::mutex mu;
  std::vector<Record> records;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < f->clients.size(); ++c) {
    threads.emplace_back([&, c] {
      cqa::served::Client& client = f->clients[c];
      Tracer* tr = (*tracers)[c].get();
      std::vector<Record> mine;
      std::vector<std::pair<long, WireRecord>> mine_wire;
      for (;;) {
        Record rec;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!next(&rec.index, &rec.req)) break;
        }
        ScopedSpan root(tr, "request", -1, rec.index);
        {
          ScopedSpan s(tr, "served.call", root.handle(), rec.index);
          const std::int64_t t = now_ns();
          rec.result = client.call(rec.req.request);
          rec.done_ns = now_ns();
          rec.latency_ms = (rec.done_ns - t) / 1e6;
        }
        if (tr->enabled() && rec.result.is_ok()) {
          WireRecord w;
          if (rec.req.repeat_of < 0) {
            w.hop_ms = rec.latency_ms - rec.result.value().elapsed_ms;
          }
          std::string req_bytes, ans_bytes;
          {
            ScopedSpan s(tr, "served.encode_request", root.handle(), rec.index);
            req_bytes = cqa::served::encode_request(rec.req.request);
          }
          {
            ScopedSpan s(tr, "served.decode_request", root.handle(), rec.index);
            (void)cqa::served::decode_request(req_bytes);
          }
          {
            ScopedSpan s(tr, "served.encode_answer", root.handle(), rec.index);
            ans_bytes = cqa::served::encode_answer(rec.result, nullptr);
          }
          {
            ScopedSpan s(tr, "served.decode_answer", root.handle(), rec.index);
            Result<Answer> back = Status::internal("unset");
            (void)cqa::served::decode_answer(ans_bytes, nullptr, &back);
          }
          w.bytes = req_bytes.size() + ans_bytes.size();
          mine_wire.emplace_back(rec.index, w);
        }
        mine.push_back(std::move(rec));
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& r : mine) records.push_back(std::move(r));
      for (auto& [i, w] : mine_wire) {
        if (wire->size() <= static_cast<std::size_t>(i)) {
          wire->resize(static_cast<std::size_t>(i) + 1);
        }
        (*wire)[static_cast<std::size_t>(i)] = w;
      }
    });
  }
  for (auto& t : threads) t.join();
  std::sort(records.begin(), records.end(),
            [](const Record& x, const Record& y) { return x.index < y.index; });
  return records;
}

/// Gate: every served answer equals a local Session::run of the same
/// request. Runs after every fleet is stopped, one Session per thread.
void check_against_local(const std::vector<Record>& records, Report* report) {
  std::vector<const Record*> firsts;
  for (const Record& r : records) {
    if (r.req.repeat_of < 0) firsts.push_back(&r);
  }
  std::map<long, Result<Answer>> local;
  std::mutex mu;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nproc(); ++t) {
    threads.emplace_back([&] {
      cqa::ConstraintDatabase db;
      cqa::SessionOptions o;
      o.threads = 1;
      cqa::Session session(&db, o);
      for (std::size_t i; (i = cursor.fetch_add(1)) < firsts.size();) {
        Result<Answer> r = session.run(firsts[i]->req.request);
        std::lock_guard<std::mutex> lock(mu);
        local.emplace(firsts[i]->index, std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Record& r : records) {
    const long key = r.req.repeat_of < 0 ? r.index : r.req.repeat_of;
    auto it = local.find(key);
    if (it == local.end()) continue;  // its first occurrence was not sent
    const Result<Answer>& want = it->second;
    const bool equal =
        want.is_ok() == r.result.is_ok() &&
        (!want.is_ok() || same_answer(want.value(), r.result.value()));
    if (!equal) {
      report->error("served answer differs from local Session::run on "
                    "request " + std::to_string(r.index));
    }
  }
}

void served_outcomes(const std::vector<Record>& records, Report* report) {
  std::size_t repeats = 0;
  for (const Record& r : records) {
    report->add(r.index, r.req, r.result);
    repeats += r.req.repeat_of >= 0 ? 1 : 0;
  }
  report->sizing.num("repeat_share", static_cast<double>(repeats) /
                                         static_cast<double>(records.size()));
}

void add_fleet_sizing(Report* report) {
  const FleetSizing z = fleet_sizing();
  report->sizing.num("workers", z.workers)
      .num("pool_threads_per_worker", z.pool_threads)
      .num("executors_per_worker", z.executors)
      .num("connections", z.connections)
      .num("setup_reps", kSetupReps);
}

std::vector<std::unique_ptr<Tracer>> make_tracers(bool enabled) {
  std::vector<std::unique_ptr<Tracer>> out;
  for (std::size_t i = 0; i < fleet_sizing().connections; ++i) {
    out.push_back(std::make_unique<Tracer>(enabled));
  }
  return out;
}

void run_served(const Args& a, Report* report) {
  Fleet fleet;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.push_back(
        served_setup(&fleet, a.out_dir, rep, &report->warmup, report));
  }
  if (!fleet.server || fleet.clients.empty()) return;

  Generator gen(a.workload, a.seed);
  long issued = 0;
  double rss = -1;
  std::int64_t t0 = 0;
  auto next = [&](long* index, BenchRequest* req) {
    if (seconds_since(t0) >= a.seconds) return false;
    if (static_cast<std::size_t>(issued) == kRssRequests) {
      rss = fleet_peak_rss_mb(fleet);
    }
    *index = issued++;
    *req = gen.next();
    return true;
  };
  auto tracers = make_tracers(false);
  std::vector<WireRecord> wire;
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < fleet.server->worker_count(); ++i) {
    pids.push_back(fleet.server->worker_pid(i));
  }
  WindowSampler sampler([&pids] { return fleet_cpu_ms(pids); }, a.seconds,
                        true);
  t0 = now_ns();
  sampler.start(t0);
  std::vector<Record> records = drive(&fleet, next, &tracers, &wire);
  std::vector<Window> windows = sampler.stop();
  if (rss < 0) rss = fleet_peak_rss_mb(fleet);
  stop_fleet(&fleet);

  served_outcomes(records, report);
  check_against_local(records, report);
  for (const Record& r : records) report->latency(r.req, r.latency_ms);
  report_phase(std::move(windows), records, report);
  report->metric("setup_s", percentile(setup, 0.5));
  report->metric("peak_rss_mb", rss);
  report->setup = setup;
  add_fleet_sizing(report);
}

void trace_served(const Args& a, Report* report) {
  Fleet fleet;
  served_setup(&fleet, a.out_dir, 0, &report->warmup, report);
  if (!fleet.server || fleet.clients.empty()) return;

  Generator gen(a.workload, a.seed);
  std::vector<BenchRequest> issued;
  std::int64_t t0 = 0;
  auto next = [&](long* index, BenchRequest* req) {
    const bool done = seconds_since(t0) >= a.seconds / 2;
    if (done && issued.size() >= kCountPrefix) return false;
    *index = static_cast<long>(issued.size());
    issued.push_back(gen.next());
    *req = issued.back();
    return true;
  };
  auto tracers = make_tracers(true);
  std::vector<WireRecord> wire;
  const auto c0 = fleet_counters(&fleet);
  t0 = now_ns();
  std::vector<Record> records = drive(&fleet, next, &tracers, &wire);
  const double traced_s = seconds_since(t0);
  const auto c1 = fleet_counters(&fleet);
  std::uint64_t retries = 0;
  for (const auto& c : fleet.clients) retries += c.retry_stats().retries;
  stop_fleet(&fleet);

  // The same requests again on a fresh fleet, untraced: the tracing
  // overhead is the ratio of the two phase times.
  Tally replay_warm;
  served_setup(&fleet, a.out_dir, 1, &replay_warm, report);
  if (!fleet.server || fleet.clients.empty()) return;
  std::size_t replayed = 0;
  auto replay = [&](long* index, BenchRequest* req) {
    if (replayed == issued.size()) return false;
    *index = static_cast<long>(replayed);
    *req = issued[replayed++];
    return true;
  };
  auto off = make_tracers(false);
  std::vector<WireRecord> unused;
  const std::int64_t t1 = now_ns();
  (void)drive(&fleet, replay, &off, &unused);
  const double untraced_s = seconds_since(t1);
  stop_fleet(&fleet);

  served_outcomes(records, report);
  check_against_local(records, report);

  auto delta = [&](const std::string& k) {
    auto i1 = c1.find(k);
    auto i0 = c0.find(k);
    return (i1 == c1.end() ? 0 : i1->second) -
           (i0 == c0.end() ? 0 : i0->second);
  };
  const double submitted = delta("serve_submitted_total");
  const double routed = delta("served_requests_total");
  // Each first occurrence of a quantified request that reaches a worker
  // reuses its own planner rewrite once; that is not a cross-request hit.
  double own_rewrites = 0;
  for (const Record& r : records) {
    own_rewrites += r.req.quantified && r.req.repeat_of < 0 ? 1 : 0;
  }
  double hop = 0, hops = 0, bytes = 0, points = 0;
  std::size_t exact = 0, volumes = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i < wire.size() && wire[i].hop_ms >= 0) {
      hop += wire[i].hop_ms;
      ++hops;
    }
    if (i < kCountPrefix && i < wire.size()) {
      bytes += static_cast<double>(wire[i].bytes);
      if (records[i].result.is_ok()) {
        points += static_cast<double>(
            records[i].result.value().volume.points_evaluated);
      }
    }
    if (records[i].req.request.kind == cqa::RequestKind::kVolume &&
        records[i].result.is_ok()) {
      ++volumes;
      exact += records[i].result.value().volume.exact ? 1 : 0;
    }
  }
  std::vector<const Tracer*> all;
  for (const auto& t : tracers) all.push_back(t.get());
  const auto st = self_times(all);
  double wire_us = 0;
  for (const char* k : {"served.encode_request", "served.decode_request",
                        "served.encode_answer", "served.decode_answer"}) {
    wire_us += mean_self(st, k, 1e3);
  }
  const double prefix = static_cast<double>(kCountPrefix);
  const double n = static_cast<double>(records.size());

  zero_metrics(report, kEngineOnly);
  report->metric("plan.exact_share",
                 volumes ? static_cast<double>(exact) /
                               static_cast<double>(volumes)
                         : 0);
  report->metric("runtime.points_per_req", points / prefix);
  report->metric("runtime.cache_hit_frac",
                 submitted > 0 ? std::max(0.0, delta("cache_hits_total") -
                                                   own_rewrites) /
                                     submitted
                               : 0);
  report->metric("serve.queue_wait_ms",
                 delta("serve_wait_ns_count") > 0
                     ? delta("serve_wait_ns_sum_ns") /
                           delta("serve_wait_ns_count") / 1e6
                     : 0);
  report->metric("serve.coalesced_frac",
                 submitted > 0 ? delta("serve_coalesced_total") / submitted
                               : 0);
  report->metric("serve.batched_frac",
                 submitted > 0 ? delta("serve_mc_batched_total") / submitted
                               : 0);
  report->metric("serve.shed_frac",
                 routed > 0 ? (delta("served_shed_total") +
                               delta("serve_shed_total")) /
                                  routed
                            : 0);
  report->metric("served.hop_ms", hops > 0 ? hop / hops : 0);
  report->metric("served.wire_us", wire_us);
  report->metric("served.wire_bytes", bytes / prefix);
  report->metric("served.router_hit_frac",
                 routed > 0 ? delta("served_cache_hit_total") / routed : 0);
  report->metric("served.retries", static_cast<double>(retries));
  report->metric("trace.overhead", traced_s / untraced_s);

  const std::string path = a.out_dir + "/trace-served_mix-" +
                           std::to_string(a.seed) + ".json";
  if (!write_trace(path, all)) report->error("cannot write " + path);
  report->sizing.str("trace_file", path).num("traced_requests", n);
  add_fleet_sizing(report);
}

// --------------------------------------------------------------- main

int print_fingerprints(const Args& a) {
  Generator gen(a.workload, a.seed);
  for (std::size_t i = 0; i < a.count; ++i) {
    const BenchRequest b = gen.next();
    std::string hex;
    char buf[3];
    for (unsigned char c : cqa::serve::request_fingerprint(b.request)) {
      std::snprintf(buf, sizeof buf, "%02x", c);
      hex += buf;
    }
    std::printf("%s %s %ld\n", hex.c_str(), b.family.c_str(), b.repeat_of);
  }
  return 0;
}

int run(const Args& a) {
  Report report;
  const std::int64_t t0 = now_ns();
  if (a.workload == Workload::kServedMix) {
    a.trace ? trace_served(a, &report) : run_served(a, &report);
  } else {
    a.trace ? trace_in_process(a, &report) : run_in_process(a, &report);
  }
  if (report.measured.sent == 0) report.error("no request completed");
  report.check_coverage();
  if (a.trace) {
    report.metric("quality.bar_width_mean", report.bar_width_mean());
    report.metric("quality.error_frac", report.error_frac());
  }

  JsonObject metrics;
  for (const auto& [k, v] : report.metrics) metrics.num(k, v);
  JsonObject families;
  for (const auto& [k, v] : report.families) families.num(k, v);
  std::string messages = "[";
  for (std::size_t i = 0; i < report.messages.size(); ++i) {
    messages += (i ? ", " : "") + json_str(report.messages[i]);
  }
  messages += "]";
  std::string setup_json = "[";
  for (std::size_t i = 0; i < report.setup.size(); ++i) {
    setup_json += (i ? ", " : "") + json_num(report.setup[i]);
  }
  setup_json += "]";
  const bool correct = report.failed() == 0;
  std::printf("%s\n",
              JsonObject()
                  .str("workload", workload_name(a.workload))
                  .num("seed", static_cast<double>(a.seed))
                  .num("trace", a.trace ? 1 : 0)
                  .boolean("correct", correct)
                  .num("attempted", report.measured.sent)
                  .num("failed", report.failed())
                  .num("error_frac", report.error_frac())
                  .num("bar_width_mean", report.bar_width_mean())
                  .num("closed_form_shapes", report.shapes)
                  .num("closed_form_misses", report.misses)
                  .raw("metrics", metrics.dump())
                  .raw("phases", JsonObject()
                                     .raw("warmup", report.warmup.json())
                                     .raw("measured", report.measured.json())
                                     .dump())
                  .raw("families", families.dump())
                  .raw("family_latency_ms", report.family_latency_json())
                  .num("speed_scale", report.speed_scale)
                  .raw("quiet_raw", report.quiet_raw)
                  .raw("whole_run", report.whole_run)
                  .raw("windows", report.windows)
                  .raw("setup_reps_s", setup_json)
                  .raw("env", env_json(report.sizing))
                  .raw("errors", messages)
                  .num("wall_s", seconds_since(t0))
                  .dump()
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cqabench

int main(int argc, char** argv) {
  cqabench::Args a;
  if (!cqabench::parse_args(argc, argv, &a) ||
      (a.mode != "run" && a.mode != "fingerprints")) {
    std::fprintf(stderr,
                 "usage: cqabench run|fingerprints --workload W --seed N "
                 "[--seconds S --trace 0|1 --out-dir D | --count K]\n");
    return 2;
  }
  if (a.mode == "fingerprints") return cqabench::print_fingerprints(a);
  return cqabench::run(a);
}
