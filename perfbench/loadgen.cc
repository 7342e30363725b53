// perfbench_loadgen: one run of the served-query benchmark.
//
//   perfbench_loadgen --ovcd=PATH --work-dir=DIR --workload=NAME --seed=N
//                     --seconds=S --trace=0|1 [--commit=ID]
//
// Starts the real ovcd binary with the workload's tables and budgets and
// drives it over loopback from one thread per connection through the
// unmodified server::Client: a closed loop over persistent connections.
// Every result is checked against the reference answers of workloads.cc.
//
// --trace=0 prints the end-to-end metrics. --trace=1 prints the per-layer
// metrics: it splits the window into an untraced and a traced half (their
// client latencies give the tracing overhead), reads the server's METRICS
// snapshot, and then times calls into the engine's public functions
// in-process. Spans are recorded only here, around those calls -- nothing
// inside src/ is instrumented -- kept in memory, and written at the end as a
// Chrome trace-event file in the work dir.
//
// The last line of stdout is the JSON result (correct, attempted, failed,
// metrics); the lines before it name every metric with its unit and give
// the run's context record.

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "json.h"
#include "row/generator.h"
#include "row/row_block.h"
#include "server/admission.h"
#include "server/client.h"
#include "sort/external_sort.h"
#include "sql/catalog.h"
#include "sql/gen_spec.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using ovc::QueryCounters;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear interpolation between order statistics; `p` in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double QError(double a, double b) {
  a = std::max(a, 1.0);
  b = std::max(b, 1.0);
  return std::max(a / b, b / a);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, and the span that caused it. Spans of one
// statement share the root span's id as `request`.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string detail;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
};

std::atomic<uint64_t> g_next_span_id{1};

// Times one call. With a null sink it only measures; otherwise it also
// records a span into the caller's (thread-owned) buffer.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* sink, uint32_t tid, const char* name,
             uint64_t parent = 0, uint64_t request = 0,
             std::string detail = std::string())
      : sink_(sink) {
    if (sink_ != nullptr) {
      span_.name = name;
      span_.detail = std::move(detail);
      span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
      span_.parent = parent;
      span_.request = request != 0 ? request : span_.id;
      span_.tid = tid;
    }
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  uint64_t End() {
    if (span_.end_ns == 0) {
      span_.end_ns = NowNs();
      if (sink_ != nullptr) sink_->push_back(span_);
    }
    return span_.end_ns - span_.start_ns;
  }
  uint64_t id() const { return span_.id; }
  uint64_t request() const { return span_.request; }

 private:
  std::vector<Span>* sink_;
  Span span_;
};

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

std::string ChromeTrace(const std::vector<Span>& spans) {
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    AppendJsonString(s.name, &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"detail\":",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    AppendJsonString(s.detail, &out);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// The ovcd child process.
// ---------------------------------------------------------------------------

class OvcdProcess {
 public:
  OvcdProcess() = default;
  ~OvcdProcess() { Stop(); }
  OvcdProcess(const OvcdProcess&) = delete;
  OvcdProcess& operator=(const OvcdProcess&) = delete;

  /// Spawns ovcd and waits for the "listening on HOST:PORT" line it prints
  /// once its tables are generated and its socket is bound.
  bool Start(const std::string& path, const std::vector<std::string>& args,
             std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    std::vector<std::string> argv_storage = {path};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      *error = "spawn " + path + ": " + std::strerror(rc);
      return false;
    }
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd p = {out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0) {
        *error = "ovcd did not report a listening port within 60 s";
        return false;
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        *error = "ovcd exited before listening";
        return false;
      }
      line.append(buf, static_cast<size_t>(n));
    }
    const size_t at = line.find("listening on ");
    const size_t colon =
        at == std::string::npos ? std::string::npos : line.find(':', at);
    if (colon == std::string::npos) {
      *error = "unexpected ovcd output: " + line;
      return false;
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1,
                                               nullptr, 10));
    return true;
  }

  /// SIGTERM, then SIGKILL if ovcd has not exited after 10 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 1000 && !reaped; ++i) {
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) ::usleep(10000);
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

  /// CPU time of the whole process (every thread, live or exited), read
  /// from the kernel's per-process CPU clock at nanosecond resolution.
  uint64_t CpuNs() const {
    clockid_t clock;
    timespec ts = {};
    if (clock_getcpuclockid(pid_, &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      return 0;
    }
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  /// VmHWM from /proc: the process's peak resident set, in MiB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// The reference sort: a yardstick for the host's CPU speed.
// ---------------------------------------------------------------------------

// On a shared host the CPU time a fixed piece of work takes drifts by a
// quarter and more over minutes, with the neighbours' load. While the
// window runs, this thread repeatedly std::sorts one fixed 20k-row array
// (4 x u64, 640 KiB; the same on every run and seed) and times each sort
// on its own thread CPU clock; ovcd's CPU per statement is also reported
// as a multiple of the median sort, which cancels the drift both see. One
// sort takes a few ms and it sleeps 50 ms between sorts, so it takes about
// 5% of one CPU.
class ReferenceSort {
 public:
  static constexpr size_t kRows = 20000;
  static constexpr int kPauseMs = 50;

  ReferenceSort() = default;
  ~ReferenceSort() { Stop(); }
  ReferenceSort(const ReferenceSort&) = delete;
  ReferenceSort& operator=(const ReferenceSort&) = delete;

  void Start() {
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }

  /// Stops the thread and returns the median CPU ms of one sort.
  double Stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return Median(sort_ms_);
  }

 private:
  static uint64_t ThreadCpuNs() {
    timespec ts = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  void Loop() {
    using Row = std::array<uint64_t, 4>;
    std::vector<Row> input(kRows);
    ovc::Rng rng(20000);
    for (Row& r : input) {
      r = {rng.Uniform(1000), rng.Uniform(1000), rng.Next(), rng.Next()};
    }
    std::vector<Row> rows;
    uint64_t checksum = 0;
    do {
      rows = input;
      const uint64_t start = ThreadCpuNs();
      std::sort(rows.begin(), rows.end());
      sort_ms_.push_back(static_cast<double>(ThreadCpuNs() - start) / 1e6);
      checksum += rows[kRows / 2][2];
      std::this_thread::sleep_for(std::chrono::milliseconds(kPauseMs));
    } while (!stop_);
    sink_ = checksum;
  }

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::vector<double> sort_ms_;
  // Keeps the sorts observable.
  std::atomic<uint64_t> sink_{0};
};

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

struct Connection {
  ovc::server::Client client;
  std::vector<Request> prepared;
  std::vector<uint64_t> handles;
  ovc::Rng rng{0};
  uint64_t next_index = 0;
};

struct WindowStats {
  std::vector<double> latency_ms;
  std::map<uint32_t, std::vector<double>> latency_ms_by_template;
  uint64_t attempted = 0;
  uint64_t transport_failures = 0;
  uint64_t error_frames = 0;
  uint64_t wrong_results = 0;
  uint64_t counter_mismatches = 0;
  QueryCounters counters;
  uint64_t input_rows = 0;
  double seconds = 0;

  uint64_t failed() const {
    return transport_failures + error_frames + wrong_results;
  }
  void Merge(const WindowStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    for (const auto& [t, v] : o.latency_ms_by_template) {
      auto& mine = latency_ms_by_template[t];
      mine.insert(mine.end(), v.begin(), v.end());
    }
    attempted += o.attempted;
    transport_failures += o.transport_failures;
    error_frames += o.error_frames;
    wrong_results += o.wrong_results;
    counter_mismatches += o.counter_mismatches;
    counters.Merge(o.counters);
    input_rows += o.input_rows;
  }
};

class LoadDriver {
 public:
  LoadDriver(const Workload* w, uint64_t seed) : w_(w), seed_(seed) {}

  /// Opens every connection and prepares its statements.
  bool ConnectAll(uint16_t port, std::string* error) {
    port_ = port;
    conns_.clear();
    for (uint32_t c = 0; c < w_->clients; ++c) {
      auto conn = std::make_unique<Connection>();
      conn->rng = ovc::Rng(seed_ * 1000003 + c + 1);
      conn->prepared = w_->Prepared(&conn->rng);
      if (!Connect(conn.get(), error)) return false;
      conns_.push_back(std::move(conn));
    }
    return true;
  }

  void DisconnectAll() { conns_.clear(); }

  /// Runs every client until `seconds` have passed (finishing the current
  /// cycle on cycling workloads) or, with `requests` > 0, for exactly that
  /// many requests each. Records spans into `spans` when non-null.
  WindowStats Run(double seconds, uint64_t requests,
                  std::vector<Span>* spans) {
    std::vector<WindowStats> per_client(conns_.size());
    std::vector<std::vector<Span>> per_client_spans(conns_.size());
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns_.size(); ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(static_cast<uint32_t>(c), deadline, requests,
                   spans != nullptr ? &per_client_spans[c] : nullptr,
                   &per_client[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    WindowStats total;
    for (const WindowStats& s : per_client) total.Merge(s);
    total.seconds = static_cast<double>(NowNs() - start) / 1e9;
    if (spans != nullptr) {
      for (auto& s : per_client_spans) {
        spans->insert(spans->end(), s.begin(), s.end());
      }
    }
    return total;
  }

 private:
  bool Connect(Connection* conn, std::string* error) {
    ovc::Status s = conn->client.Connect("127.0.0.1", port_);
    if (!s.ok()) {
      *error = "connect: " + s.message();
      return false;
    }
    conn->handles.clear();
    for (const Request& r : conn->prepared) {
      ovc::server::Client::PreparedInfo info;
      s = conn->client.Prepare(w_->Sql(r), &info);
      if (!s.ok() || !info.ok) {
        *error = "prepare: " + (s.ok() ? info.error_message : s.message());
        return false;
      }
      conn->handles.push_back(info.handle);
    }
    return true;
  }

  void ClientLoop(uint32_t c, uint64_t deadline, uint64_t requests,
                  std::vector<Span>* spans, WindowStats* out) {
    Connection* conn = conns_[c].get();
    const uint64_t cycle = w_->cycles() ? w_->templates.size() : 1;
    for (uint64_t i = 0;; ++i) {
      if (requests > 0 ? i >= requests
                       : (i % cycle == 0 && NowNs() >= deadline)) {
        break;
      }
      const Request r =
          w_->Next(c, conn->next_index++, conn->prepared, &conn->rng);
      const std::string sql = r.execute ? std::string() : w_->Sql(r);
      ovc::server::Client::Result result;
      ++out->attempted;
      ScopedSpan span(spans, c + 1,
                      r.execute ? "client.execute" : "client.query", 0, 0,
                      w_->templates[r.tmpl].label);
      const ovc::Status status =
          r.execute ? conn->client.Execute(conn->handles[r.prepared], &result)
                    : conn->client.Query(sql, &result);
      const uint64_t ns = span.End();
      if (!status.ok()) {
        ++out->transport_failures;
        conn->client.Disconnect();
        std::string error;
        if (!Connect(conn, &error)) {
          std::fprintf(stderr, "client %u: %s\n", c, error.c_str());
          return;
        }
        continue;
      }
      if (!result.ok) {
        ++out->error_frames;
        std::fprintf(stderr, "client %u: ERROR %s\n", c,
                     result.error_message.c_str());
        continue;
      }
      ScopedSpan check(spans, c + 1, "client.check_reference", span.id(),
                       span.request());
      if (result.rows != w_->Expected(r)) {
        ++out->wrong_results;
        std::fprintf(stderr, "client %u: wrong result for: %s\n", c,
                     w_->Sql(r).c_str());
        continue;
      }
      out->latency_ms.push_back(static_cast<double>(ns) / 1e6);
      out->latency_ms_by_template[r.tmpl].push_back(out->latency_ms.back());
      out->counters.Merge(result.counters);
      out->input_rows += w_->templates[r.tmpl].input_rows;
      if (w_->workers == 1 && !CountersRepeat(r, result.counters)) {
        ++out->counter_mismatches;
      }
    }
  }

  // Serial statements must charge exactly the same work every time they
  // run; the first run of each statement is the baseline.
  bool CountersRepeat(const Request& r, const QueryCounters& counters) {
    std::lock_guard<std::mutex> lock(baseline_mu_);
    auto inserted = baseline_.emplace(std::make_pair(r.tmpl, r.literal),
                                      counters);
    return inserted.second || inserted.first->second == counters;
  }

  const Workload* w_;
  uint64_t seed_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::mutex baseline_mu_;
  std::map<std::pair<uint32_t, uint64_t>, QueryCounters> baseline_;
};

// ---------------------------------------------------------------------------
// The server's METRICS snapshot, diffed over a window.
// ---------------------------------------------------------------------------

struct ServerSnapshot {
  /// Bytes the server sent to deliver this snapshot: one TEXT frame of a
  /// 5-byte frame header, a u32 string length, and the JSON (wire.h).
  double reply_bytes = 0;
  std::map<std::string, double> counters;
  // Histogram bucket counts keyed by bucket index (bucket i holds
  // [2^(i-1), 2^i); bucket 0 holds the value 0).
  std::map<std::string, std::map<int, double>> histograms;

  bool Parse(const std::string& json) {
    reply_bytes = 9 + static_cast<double>(json.size());
    JsonValue root;
    if (!JsonReader(json).Parse(&root)) return false;
    const JsonValue* metrics = root.Find("metrics");
    if (metrics == nullptr) return false;
    for (const JsonValue& m : metrics->array) {
      const JsonValue* name = m.Find("name");
      const JsonValue* kind = m.Find("kind");
      if (name == nullptr || kind == nullptr) continue;
      if (kind->string == "histogram") {
        auto& buckets = histograms[name->string];
        const JsonValue* list = m.Find("buckets");
        if (list == nullptr) continue;
        for (const JsonValue& b : list->array) {
          const double le = b.Number("le");
          buckets[static_cast<int>(std::lround(std::log2(le + 1)))] +=
              b.Number("count");
        }
      } else {
        counters[name->string] = m.Number("value");
      }
    }
    return true;
  }

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

double CounterDelta(const ServerSnapshot& a, const ServerSnapshot& b,
                    const std::string& name) {
  return b.Counter(name) - a.Counter(name);
}

// Percentile of the values recorded between two snapshots, interpolated
// inside power-of-two buckets exactly as metrics::Histogram::Percentile.
double HistogramDeltaPercentile(const ServerSnapshot& a,
                                const ServerSnapshot& b,
                                const std::string& name, double p,
                                double* count) {
  std::map<int, double> delta;
  auto after = b.histograms.find(name);
  if (after != b.histograms.end()) delta = after->second;
  auto before = a.histograms.find(name);
  if (before != a.histograms.end()) {
    for (const auto& [i, n] : before->second) delta[i] -= n;
  }
  double total = 0;
  for (const auto& [i, n] : delta) total += n;
  *count = total;
  if (total <= 0) return 0;
  const double target = p * total;
  double cumulative = 0;
  for (const auto& [i, n] : delta) {
    if (n <= 0) continue;
    if (cumulative + n >= target) {
      if (i == 0) return 0;
      const double lo = i == 1 ? 1.0 : std::ldexp(1.0, i - 1);
      const double hi = std::ldexp(1.0, i);
      return lo + (target - cumulative) / n * (hi - lo);
    }
    cumulative += n;
  }
  return 0;
}

bool FetchSnapshot(uint16_t port, ServerSnapshot* out) {
  ovc::server::Client client;
  std::string json;
  return client.Connect("127.0.0.1", port).ok() &&
         client.Metrics(&json).ok() && out->Parse(json);
}

// ---------------------------------------------------------------------------
// Metrics output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// In-process layer timing (traced run only).
// ---------------------------------------------------------------------------

struct LayerTimes {
  double tokenize_us = 0;
  double parse_us = 0;
  double prepare_us = 0;
  double instantiate_us = 0;
  double execute_ms = 0;
  double cost_qerror = 0;
  std::map<std::string, double> exec_ms;
  double exchange_speedup = 1;
  double sort_add_ns_per_row = 0;
  double sort_finish_ns_per_row = 0;
  double sort_output_ns_per_row = 0;
  double sort_runs_spilled = 0;
  double sort_merge_levels = 0;
  uint64_t failures = 0;
};

// Operator category of a profile plan label such as
// "in-sort-aggregate(group=2, per worker) [sorted(2)+ovc]": decided by the
// operator name alone, before its arguments and order property.
std::string OperatorCategory(const std::string& label) {
  const std::string op = label.substr(0, label.find_first_of("( ["));
  if (op.find("exchange") != std::string::npos) return "exchange";
  if (op.find("aggregate") != std::string::npos ||
      op.find("distinct") != std::string::npos) {
    return "aggregate";
  }
  if (op.find("join") != std::string::npos) return "join";
  if (op.find("sort") != std::string::npos) return "sort";
  if (op.find("scan") != std::string::npos) return "scan";
  return "other";
}

// Adds each plan node's self time (its time minus its children's; nodes
// fed by other threads can read negative and count as 0) to its category.
void AddSelfTimes(const JsonValue& node, std::map<std::string, double>* ms) {
  double children_ms = 0;
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->array) {
      children_ms += child.Number("time_ms");
      AddSelfTimes(child, ms);
    }
  }
  const JsonValue* op = node.Find("op");
  (*ms)[OperatorCategory(op != nullptr ? op->string : "")] +=
      std::max(0.0, node.Number("time_ms") - children_ms);
}

Rows ToRows(const ovc::RowBuffer& buffer) {
  Rows out(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    out[i].assign(buffer.row(i), buffer.row(i) + buffer.width());
  }
  return out;
}

// The options ovcd's sessions plan with: the workload's machine budgets
// sliced per admission slot, parallelism = workers per query.
ovc::sql::SqlSession::Options SessionOptionsFor(const Workload& w) {
  ovc::sql::SqlSession::Options machine;
  if (w.sort_memory_rows != 0) {
    machine.planner.sort_config.memory_rows = w.sort_memory_rows;
  }
  if (w.hash_memory_rows != 0) {
    machine.planner.hash_memory_rows = w.hash_memory_rows;
  }
  return ovc::server::AdmissionController::Slice(machine, w.max_queries,
                                                 w.workers);
}

template <typename Fn>
double MedianNs(int reps, std::vector<Span>* spans, const char* name,
                uint64_t parent, const std::string& detail, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(spans, 0, name, parent, parent, detail);
    fn();
    ns.push_back(static_cast<double>(span.End()));
  }
  return Median(ns);
}

LayerTimes MeasureLayers(const Workload& w, uint64_t seed,
                         const std::string& temp_dir,
                         std::vector<Span>* spans) {
  LayerTimes out;
  ovc::sql::Catalog catalog;
  for (const TableSpec& t : w.tables) {
    if (!ovc::sql::RegisterGeneratedFromSpec(&catalog, t.GenSpec()).ok()) {
      ++out.failures;
      return out;
    }
  }
  const ovc::sql::SqlSession::Options options = SessionOptionsFor(w);
  ovc::sql::SqlSession::Options profiled = options;
  profiled.planner.profile = true;
  ovc::sql::SqlSession::Options serial = options;
  serial.planner.parallelism = 1;

  ovc::TempFileManager temp_root(temp_dir);
  ovc::sql::SqlSession session(&catalog, options, &temp_root);
  ovc::sql::SqlSession profiled_session(&catalog, profiled, &temp_root);
  ovc::sql::SqlSession serial_session(&catalog, serial, &temp_root);

  // The statements: every template of a cycling workload, or a seeded
  // sample of the Zipf stream.
  std::vector<Request> sample;
  if (w.cycles()) {
    for (uint32_t t = 0; t < w.templates.size(); ++t) {
      Request r;
      r.tmpl = t;
      sample.push_back(r);
    }
  } else {
    ovc::Rng rng(seed ^ 0x1a7e45ULL);
    const std::vector<Request> none;
    for (int i = 0; i < 32; ++i) sample.push_back(w.Next(0, i, none, &rng));
  }
  const int front_reps = 15;
  const int exec_reps = w.cycles() ? 2 : 5;

  std::vector<double> tokenize, parse, prepare, instantiate, execute, qerror;
  double serial_ns = 0;
  double parallel_ns = 0;
  for (const Request& r : sample) {
    const std::string sql = w.Sql(r);
    const std::string& label = w.templates[r.tmpl].label;
    ScopedSpan statement(spans, 0, "inproc.statement", 0, 0, label);
    const uint64_t parent = statement.id();
    tokenize.push_back(MedianNs(front_reps, spans, "sql.Tokenize", parent,
                                label, [&] {
                                  if (!ovc::sql::Tokenize(sql).ok()) {
                                    ++out.failures;
                                  }
                                }) /
                       1e3);
    parse.push_back(MedianNs(front_reps, spans, "sql.ParseStatement", parent,
                             label, [&] {
                               if (!ovc::sql::ParseStatement(sql).ok()) {
                                 ++out.failures;
                               }
                             }) /
                    1e3);
    std::unique_ptr<ovc::sql::PreparedQuery> prepared;
    prepare.push_back(
        MedianNs(front_reps, spans, "sql.SqlSession::Prepare", parent, label,
                 [&] {
                   auto result = session.Prepare(sql);
                   if (result.ok()) {
                     prepared = std::move(result).value();
                   } else {
                     ++out.failures;
                   }
                 }) /
        1e3);
    if (prepared == nullptr) continue;
    instantiate.push_back(
        MedianNs(front_reps, spans, "sql.SqlSession::Instantiate", parent,
                 label, [&] { session.Instantiate(&prepared->bound); }) /
        1e3);
    const Rows& expected = w.Expected(r);
    const double exec_ns = MedianNs(
        exec_reps, spans, "plan.SqlSession::Run", parent, label, [&] {
          const ovc::sql::QueryResult result = session.Run(prepared.get());
          if (!result.result.ok() || ToRows(result.result.rows) != expected) {
            ++out.failures;
          }
        });
    execute.push_back(exec_ns / 1e6);
    parallel_ns += exec_ns;

    // One profiled run: operator self times and the root's cost estimate.
    {
      ScopedSpan span(spans, 0, "exec.profiled_run", parent, parent, label);
      auto result = profiled_session.Run(sql);
      JsonValue profile;
      if (!result.ok() || !result.value().result.ok() ||
          !JsonReader(result.value().profile_json).Parse(&profile) ||
          profile.Find("plan") == nullptr) {
        ++out.failures;
      } else {
        const JsonValue& root = *profile.Find("plan");
        std::map<std::string, double> self_ms;
        AddSelfTimes(root, &self_ms);
        for (const auto& [category, ms] : self_ms) out.exec_ms[category] += ms;
        qerror.push_back(QError(root.Number("est_cost"), exec_ns));
      }
    }
    if (w.workers > 1) {
      ScopedSpan span(spans, 0, "exec.serial_run", parent, parent, label);
      auto result = serial_session.Run(sql);
      if (!result.ok() || !result.value().result.ok()) ++out.failures;
      serial_ns += static_cast<double>(span.End());
    }
  }
  out.tokenize_us = Mean(tokenize);
  out.parse_us = Mean(parse);
  out.prepare_us = Mean(prepare);
  out.instantiate_us = Mean(instantiate);
  out.execute_ms = Mean(execute);
  out.cost_qerror = Median(qerror);
  for (auto& [category, ms] : out.exec_ms) {
    ms /= static_cast<double>(sample.size());
  }
  if (w.workers > 1 && parallel_ns > 0) {
    // Median-of-reps parallel time against one serial run per statement.
    out.exchange_speedup = serial_ns / parallel_ns;
  }

  // The sort layer alone: ExternalSort over the workload's first table with
  // the per-statement sort budget.
  const TableSpec& table = w.tables[0];
  const ovc::Schema schema = table.schema();
  ovc::GeneratorConfig config;
  config.rows = table.rows;
  config.distinct_per_column = table.distinct;
  config.seed = table.seed;
  config.sorted = table.sorted;
  ovc::RowBuffer rows(schema.total_columns());
  ovc::GenerateRows(schema, config, &rows);
  std::vector<double> add, finish, output;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan sort_span(spans, 0, "sort.ExternalSort", 0, 0, table.name);
    const uint64_t parent = sort_span.id();
    QueryCounters counters;
    ovc::TempFileManager temp(&temp_root);
    ovc::ExternalSort sort(&schema, &counters, &temp,
                           options.planner.sort_config);
    ovc::RowBlock block(schema.total_columns());
    uint64_t add_ns = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      block.Append(rows.row(i), 0);
      if (block.full() || i + 1 == rows.size()) {
        ScopedSpan span(spans, 0, "sort.AddBlock", parent, parent);
        sort.AddBlock(block);
        add_ns += span.End();
        block.Clear();
      }
    }
    ScopedSpan finish_span(spans, 0, "sort.Finish", parent, parent);
    if (!sort.Finish().ok()) ++out.failures;
    const uint64_t finish_ns = finish_span.End();
    ScopedSpan output_span(spans, 0, "sort.NextBlock", parent, parent);
    uint64_t produced = 0;
    ovc::RowBlock out_block(schema.total_columns());
    for (uint32_t n; (n = sort.NextBlock(&out_block)) != 0;) produced += n;
    const uint64_t output_ns = output_span.End();
    if (produced != rows.size()) ++out.failures;
    const double n = static_cast<double>(rows.size());
    add.push_back(static_cast<double>(add_ns) / n);
    finish.push_back(static_cast<double>(finish_ns) / n);
    output.push_back(static_cast<double>(output_ns) / n);
    out.sort_runs_spilled = static_cast<double>(sort.spilled_runs());
    out.sort_merge_levels =
        static_cast<double>(sort.intermediate_merge_levels());
  }
  out.sort_add_ns_per_row = Median(add);
  out.sort_finish_ns_per_row = Median(finish);
  out.sort_output_ns_per_row = Median(output);
  return out;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string ovcd;
  std::string work_dir;
  std::string workload;
  std::string commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    if (key == "ovcd") {
      args->ovcd = value;
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "workload") {
      args->workload = value;
    } else if (key == "commit") {
      args->commit = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return !args->ovcd.empty() && !args->work_dir.empty() &&
         !args->workload.empty() && args->seconds > 0;
}

uint32_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ovcd starts this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 9;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --ovcd=PATH --work-dir=DIR "
                 "--workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "[--commit=ID]\n");
    return 2;
  }
#ifndef NDEBUG
  // Debug builds validate every sorted stream row by row (PlanExecutor's
  // `validate` default), which would dominate every number here.
  std::fprintf(stderr, "refusing to benchmark a build without NDEBUG "
                       "(build type %s)\n", PERFBENCH_BUILD_TYPE);
  return 1;
#endif
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  workload->ComputeAnswers();

  const std::string temp_dir = args.work_dir + "/tmp";
  ::mkdir(args.work_dir.c_str(), 0755);
  ::mkdir(temp_dir.c_str(), 0755);
  std::vector<std::string> ovcd_args;
  for (const TableSpec& t : w.tables) ovcd_args.push_back("--gen=" + t.GenSpec());
  for (const std::string& f : w.ServerFlags()) ovcd_args.push_back(f);
  ovcd_args.push_back("--temp-dir=" + temp_dir);

  // Set-up: start ovcd several times (tables generated, socket bound) and
  // keep the last one running.
  std::vector<double> setup_s;
  OvcdProcess ovcd;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ovcd.Stop();
    std::string error;
    const uint64_t start = NowNs();
    if (!ovcd.Start(args.ovcd, ovcd_args, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  LoadDriver driver(&w, args.seed);
  std::string error;
  if (!driver.ConnectAll(ovcd.port(), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Warm-up: one full cycle per client, or 25 requests on the Zipf stream
  // (plan cache and allocator warm, lazy set-up done).
  WindowStats all =
      driver.Run(0, w.cycles() ? w.templates.size() : 25, nullptr);

  std::vector<Metric> metrics;
  std::vector<Span> spans;
  WindowStats measured;
  WindowStats untraced;
  double overhead_ratio = 1;
  ServerSnapshot before;
  ServerSnapshot after;
  const bool snapshots_ok = args.trace == 0 || FetchSnapshot(ovcd.port(), &before);
  ReferenceSort reference;
  reference.Start();
  const uint64_t cpu_start = ovcd.CpuNs();
  if (args.trace == 0) {
    measured = driver.Run(args.seconds, 0, nullptr);
    untraced = measured;
  } else {
    untraced = driver.Run(args.seconds / 2, 0, nullptr);
    const WindowStats traced = driver.Run(args.seconds / 2, 0, &spans);
    overhead_ratio =
        Median(traced.latency_ms) / std::max(1e-9, Median(untraced.latency_ms));
    measured = untraced;
    const double seconds = untraced.seconds + traced.seconds;
    measured.Merge(traced);
    measured.seconds = seconds;
  }
  const uint64_t server_cpu_ns = ovcd.CpuNs() - cpu_start;
  const double refsort_ms = reference.Stop();
  const bool snapshot_after_ok =
      args.trace == 0 || FetchSnapshot(ovcd.port(), &after);
  all.Merge(measured);

  LayerTimes layers;
  if (args.trace == 1) {
    layers = MeasureLayers(w, args.seed, temp_dir, &spans);
  }
  const double peak_rss_mb = ovcd.PeakRssMb();
  driver.DisconnectAll();
  ovcd.Stop();

  // ---- Report ------------------------------------------------------------
  const double stmts = static_cast<double>(measured.latency_ms.size());
  const double per_stmt = stmts > 0 ? 1.0 / stmts : 0;
  const double server_cpu_ms_per_stmt =
      static_cast<double>(server_cpu_ns) / 1e6 * per_stmt;
  const double p50_ms = Median(untraced.latency_ms);
  const double tail_ms = Percentile(measured.latency_ms, w.tail_percentile);
  const uint64_t beyond_tail = static_cast<uint64_t>(std::count_if(
      measured.latency_ms.begin(), measured.latency_ms.end(),
      [&](double v) { return v > tail_ms; }));

  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", p50_ms, "ms"},
        {"latency_tail_ms", tail_ms, "ms"},
        {"qps", stmts / measured.seconds, "1/s"},
        {"server_cpu_refsorts_per_stmt",
         server_cpu_ms_per_stmt / std::max(1e-9, refsort_ms), "refsort"},
        {"server_peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    double stmt_count = 0;
    double wait_count = 0;
    const double stmt_p50_us = HistogramDeltaPercentile(
        before, after, "server.query_latency_us", 0.5, &stmt_count);
    const double wait_p50_us = HistogramDeltaPercentile(
        before, after, "server.admission_wait_us", 0.5, &wait_count);
    const double served = std::max(1.0, stmt_count);
    const double hits = CounterDelta(before, after, "server.plan_cache.hits");
    const double misses =
        CounterDelta(before, after, "server.plan_cache.misses");
    const QueryCounters& c = measured.counters;
    const double input_rows =
        std::max(1.0, static_cast<double>(measured.input_rows));
    auto exec = [&](const char* category) {
      auto it = layers.exec_ms.find(category);
      return it == layers.exec_ms.end() ? 0.0 : it->second;
    };
    metrics = {
        {"server.stmt_p50_us", stmt_p50_us, "us"},
        {"server.cpu_ms_per_stmt", server_cpu_ms_per_stmt, "ms"},
        {"server.unattributed_p50_us", p50_ms * 1e3 - stmt_p50_us, "us"},
        {"server.admission_wait_p50_us", wait_p50_us, "us"},
        {"server.admission_waits_per_stmt",
         CounterDelta(before, after, "server.admission_waits") / served,
         "1/stmt"},
        // The window's bytes include the reply carrying `before`.
        {"server.bytes_sent_per_stmt",
         (CounterDelta(before, after, "server.bytes_sent") -
          before.reply_bytes) /
             served,
         "B"},
        {"server.plan_cache.hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
        {"server.plan_cache.lookups", hits + misses, "count"},
        {"server.plan_cache.evictions_per_stmt",
         CounterDelta(before, after, "server.plan_cache.evictions") / served,
         "1/stmt"},
        {"sql.tokenize_us", layers.tokenize_us, "us"},
        {"sql.parse_us", layers.parse_us, "us"},
        {"sql.prepare_us", layers.prepare_us, "us"},
        {"sql.instantiate_us", layers.instantiate_us, "us"},
        {"plan.execute_ms", layers.execute_ms, "ms"},
        {"plan.cost_qerror", layers.cost_qerror, "ratio"},
        {"exec.sort_ms", exec("sort"), "ms"},
        {"exec.aggregate_ms", exec("aggregate"), "ms"},
        {"exec.join_ms", exec("join"), "ms"},
        {"exec.scan_ms", exec("scan"), "ms"},
        {"exec.exchange_ms", exec("exchange"), "ms"},
        {"exec.hash_fallbacks_per_stmt",
         static_cast<double>(c.hash_join_fallbacks + c.hash_agg_fallbacks) *
             per_stmt,
         "1/stmt"},
        {"exec.exchange_speedup", layers.exchange_speedup, "ratio"},
        {"sort.add_ns_per_row", layers.sort_add_ns_per_row, "ns"},
        {"sort.finish_ns_per_row", layers.sort_finish_ns_per_row, "ns"},
        {"sort.output_ns_per_row", layers.sort_output_ns_per_row, "ns"},
        {"sort.runs_spilled", layers.sort_runs_spilled, "count"},
        {"sort.merge_levels", layers.sort_merge_levels, "count"},
        {"core.column_cmp_per_row",
         static_cast<double>(c.column_comparisons) / input_rows, "1/row"},
        {"core.code_cmp_per_row",
         static_cast<double>(c.code_comparisons) / input_rows, "1/row"},
        {"tempfile.rows_spilled_per_stmt",
         static_cast<double>(c.rows_spilled) * per_stmt, "rows"},
        {"tempfile.bytes_spilled_per_stmt",
         static_cast<double>(c.bytes_spilled) * per_stmt, "B"},
        {"tempfile.io_retries", static_cast<double>(c.io_retries), "count"},
        {"trace.overhead_ratio", overhead_ratio, "ratio"},
        {"bench.refsort_ms", refsort_ms, "ms"},
    };
    const std::string trace_path = args.work_dir + "/trace-" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    std::ofstream(trace_path) << ChromeTrace(spans);
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
  }

  const uint32_t nproc = OnlineCpus();
  const uint32_t threads_needed = w.clients * w.workers;
  std::string context = "{\"workload\":\"" + w.name + "\"";
  context += ",\"seed\":" + std::to_string(args.seed);
  context += ",\"seconds\":" + FormatNumber(args.seconds);
  context += ",\"trace\":" + std::to_string(args.trace);
  context += ",\"nproc\":" + std::to_string(nproc);
  context += ",\"clients\":" + std::to_string(w.clients);
  context += ",\"max_queries\":" + std::to_string(w.max_queries);
  context += ",\"workers_per_query\":" + std::to_string(w.workers);
  context += std::string(",\"oversubscribed\":") +
             (threads_needed > nproc ? "true" : "false");
  context += ",\"build_type\":\"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  context += ",\"compiler\":";
  AppendJsonString(__VERSION__, &context);
  context += ",\"commit\":";
  AppendJsonString(args.commit, &context);
  context += ",\"tail_percentile\":" + FormatNumber(w.tail_percentile);
  context += ",\"latency_samples\":" + std::to_string(measured.latency_ms.size());
  context += ",\"samples_beyond_tail\":" + std::to_string(beyond_tail);
  context += "}";
  std::printf("context %s\n", context.c_str());
  if (threads_needed > nproc) {
    std::printf("warning: %u clients x %u workers exceed %u CPUs; do not "
                "read these numbers as scaling results\n",
                w.clients, w.workers, nproc);
  }
  for (const auto& [t, v] : measured.latency_ms_by_template) {
    std::printf("statement %s: %zu samples, p50 %s ms\n",
                w.templates[t].label.c_str(), v.size(),
                FormatNumber(Median(v)).c_str());
  }
  std::printf("server CPU %s ms per statement; reference sort %s ms "
              "(median of the window's sorts)\n",
              FormatNumber(server_cpu_ms_per_stmt).c_str(),
              FormatNumber(refsort_ms).c_str());
  std::printf("latency_tail_ms is p%g over %zu samples, %llu beyond it\n",
              w.tail_percentile * 100, measured.latency_ms.size(),
              static_cast<unsigned long long>(beyond_tail));

  const uint64_t failed = all.failed() + layers.failures;
  const double error_ratio =
      static_cast<double>(failed) /
      static_cast<double>(std::max<uint64_t>(1, all.attempted));
  std::printf("error_ratio %s ratio (%llu failed of %llu attempted: %llu "
              "transport, %llu ERROR frames, %llu wrong results, %llu "
              "in-process)\n",
              FormatNumber(error_ratio).c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.transport_failures),
              static_cast<unsigned long long>(all.error_frames),
              static_cast<unsigned long long>(all.wrong_results),
              static_cast<unsigned long long>(layers.failures));
  if (w.workers == 1) {
    std::printf("work counters repeat exactly per statement: %s (%llu "
                "mismatches)\n",
                all.counter_mismatches == 0 ? "yes" : "NO",
                static_cast<unsigned long long>(all.counter_mismatches));
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }

  const bool correct = all.wrong_results == 0 && layers.failures == 0 &&
                       all.counter_mismatches == 0 && snapshots_ok &&
                       snapshot_after_ok && !measured.latency_ms.empty();
  std::string result = std::string("{\"correct\":") +
                       (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(all.attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ",";
    result += "\"" + metrics[i].name + "\":{\"value\":" +
              FormatNumber(metrics[i].value) + ",\"unit\":\"" +
              metrics[i].unit + "\"}";
  }
  result += "}}";
  std::ofstream(args.work_dir + "/result-" + w.name + "-seed" +
                std::to_string(args.seed) + "-trace" +
                std::to_string(args.trace) + ".json")
      << "{\"context\":" << context << ",\"result\":" << result << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
