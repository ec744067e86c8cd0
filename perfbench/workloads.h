// The four workloads of the end-to-end benchmark and the pieces the driver
// shares with them: a failure tally for the output checks, and the span
// recorder the traced build wraps around every library call.
//
// A workload is constructed in set-up (input generation, library
// construction, admission, warm-up) and then stepped by the driver in a
// closed loop: step() returns when its work is done and the next step
// starts then. The driver times each step() call; everything a step does
// outside the library calls (output checks, bookkeeping) happens in
// check_step(), which is not timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lsm::perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Attempted and failed operations of one run. Every library call whose
/// result can be refused (admit, depart) and every output check counts as
/// one attempt; `failed` feeds fail_frac.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;

  void record(std::int64_t attempts, std::int64_t failures,
              const std::string& what) {
    if (failures > 0 && failed == 0) first_failure = what;
    attempted += attempts;
    failed += failures;
  }
  void check(bool ok, const std::string& what) { record(1, ok ? 0 : 1, what); }
};

/// One recorded span: a library call made by the driver (or the driver's
/// own step, the root). Times are steady-clock nanoseconds.
struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t step = 0;
  int name = 0;    ///< index into the recorder's name table
  int parent = -1; ///< index of the enclosing span, -1 for a root
};

/// In-memory span log. Spans nest by a stack of open spans; nothing is
/// written until the run ends. Only the traced build records spans: the
/// untraced build's SPAN() expands to nothing, so its timings carry no
/// tracing cost at all.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void reserve(std::size_t spans) { spans_.reserve(spans); }
  void set_step(std::int64_t step) { step_ = step; }
  int open(const char* name);
  void close(int index);
  void clear() { spans_.clear(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (span time minus the time its direct
  /// children cover), summed over all spans, nanoseconds.
  std::map<std::string, std::int64_t> self_ns() const;
  /// Total (inclusive) time per span name.
  std::map<std::string, std::int64_t> total_ns() const;

  /// Writes one CSV line per span (step,id,parent,name,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<int> stack_;
  std::int64_t step_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(SpanRecorder::instance().open(name)) {}
  ~ScopedSpan() { SpanRecorder::instance().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

#if defined(LSM_E2E_TRACED)
#define LSM_E2E_CONCAT2(a, b) a##b
#define LSM_E2E_CONCAT(a, b) LSM_E2E_CONCAT2(a, b)
#define SPAN(name) \
  ::lsm::perfbench::ScopedSpan LSM_E2E_CONCAT(span_, __LINE__)(name)
inline constexpr bool kTraced = true;
#else
#define SPAN(name) \
  do {             \
  } while (false)
inline constexpr bool kTraced = false;
#endif

/// Per-layer metric values keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Timed part of one step: only calls into the library. Returns the
  /// pictures the step carried through the workload's whole path.
  virtual std::int64_t step() = 0;

  /// Untimed output checks of the step just run.
  virtual void check_step(Tally& tally) = 0;

  /// Untimed checks at the end of the run.
  virtual void check_final(Tally& tally) = 0;

  /// Counts gathered at the layer boundaries, turned into per-layer
  /// metrics. `self_ns`/`total_ns` (self and inclusive time per span name)
  /// come from the span log of the traced build.
  virtual void layer_metrics(const std::map<std::string, std::int64_t>& self_ns,
                             const std::map<std::string, std::int64_t>& total_ns,
                             LayerMetrics& out) const = 0;

  /// Steps one run does per requested second: a fixed amount of work per
  /// run, sized so a run takes about the requested time on a 4-vCPU x86-64
  /// host (see README.md).
  virtual double steps_per_second() const = 0;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// A per-layer metric Workload::layer_metrics() may set, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, the driver's own rows (allocations, page faults,
/// unattributed time) included. The traced run reports each one on every
/// workload; a layer the workload never calls reads 0.
const std::vector<LayerMetric>& layer_metrics();

/// Builds, admits and warms up `name` with inputs drawn from `seed`.
/// `smoke` selects a tiny input size for the benchmark's own tests.
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

}  // namespace lsm::perfbench
