// Driver of the end-to-end benchmark: sets a workload up (several times,
// for a steady set-up figure), steps it in a closed loop for a fixed
// amount of work, checks every step's output, and prints one JSON line
// with the end-to-end metrics, the host/build stamp and, in the traced
// build, the per-layer breakdown.
//
//   lsm_e2e --workload <name> --seed <n> --seconds <s> [--setups <k>]
//           [--smoke] [--default-malloc] [--spans <file.csv>]
//
// perfbench/run.py builds both drivers and is the command BENCHMARK.json
// names; see README.md for the metric definitions.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/simd_dispatch.h"
#include "obs/json.h"
#include "workloads.h"

#if defined(LSM_E2E_TRACED)
#include "obs/alloc_hook.h"
#endif

namespace lsm::perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 0;  ///< 0: at least 3, more while they total under 1 s
  bool smoke = false;
  bool default_malloc = false;  ///< keep glibc's adaptive thresholds
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lsm_e2e: " << why
            << "\nusage: lsm_e2e --workload <name> --seed <n> --seconds <s> "
               "[--setups <k>] [--smoke] [--default-malloc] [--spans <file.csv>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--setups") {
        o.setups = std::stoi(value());
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--default-malloc") {
        o.default_malloc = true;
      } else if (arg == "--spans") {
        o.spans_path = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  if (o.setups < 0 || o.setups > 16) usage("--setups out of range");
  return o;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
template <typename T>
double percentile(std::vector<T> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return static_cast<double>(values[rank - 1]);
}

/// Pins the process to the highest-numbered CPU it may run on, before any
/// thread exists, so the statmux pool worker inherits the pin. The driver
/// blocks while the worker runs an epoch, so the two never compete; on one
/// CPU the hand-off is a local context switch instead of a cross-CPU
/// wake-up of a possibly idle vCPU, whose latency varies with host load.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

/// Fixes glibc's allocation thresholds. By default the mmap threshold
/// adapts to freed block sizes, so whether a multi-MiB buffer the library
/// returns by value (net::packetize's cells, the pipeline reports) is
/// mapped and faulted in afresh on every step depended on the seed's
/// buffer sizes: 300k-500k page faults per 3 s of trace_faded, whose cost
/// on a virtual machine swings with host load. Fixed thresholds keep such
/// buffers in the heap, reused step after step. The timed figures are
/// therefore those of a tuned allocator; --default-malloc skips this, and
/// the traced run reports that figure beside the tuned one.
bool fix_allocator_thresholds() {
  return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
         mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
}

rusage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double peak_rss_mib() {
  return static_cast<double>(usage_now().ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_stamp(obs::JsonWriter& json, const Options& o) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
#else
  constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  json.key("stamp").begin_object();
  json.key("nproc").value(static_cast<int>(std::thread::hardware_concurrency()));
  json.key("simd_detected").value(simd::simd_level_name(simd::detected_simd_level()));
  json.key("simd_active").value(simd::simd_level_name(simd::active_simd_level()));
  json.key("compiler").value(LSM_E2E_COMPILER);
  json.key("build_type").value(LSM_E2E_BUILD_TYPE);
  json.key("optimized").value(kOptimized);
  json.key("cpu").value(sched_getcpu());
  json.key("sanitized").value(kSanitized);
  // Timings of a sanitizer or unoptimised build are flagged, never
  // compared against an optimised baseline.
  json.key("comparable").value(kOptimized && !kSanitized);
  json.key("seed").value(o.seed);
  json.key("smoke").value(o.smoke);
  json.key("default_malloc").value(o.default_malloc);
  json.end_object();
}

int run(const Options& o) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload " + o.workload);
  }

  pin_to_one_cpu();
  if (!o.default_malloc && !fix_allocator_thresholds()) {
    std::cerr << "lsm_e2e: mallopt refused the allocation thresholds\n";
    return 1;
  }

  // Set-up: input generation, construction, admission and warm-up, timed
  // on fresh instances; setup_s is their median and the last instance is
  // the one measured. Cheap set-ups are repeated until they add up to a
  // second, so their median is steady too.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Workload> workload;
  SpanRecorder& recorder = SpanRecorder::instance();
  std::map<std::string, std::int64_t> setup_spans;
  while (o.setups > 0 ? static_cast<int>(setup_s.size()) < o.setups
                      : setup_s.size() < 3 ||
                            (setup_total < 1.0 && setup_s.size() < 16)) {
    workload.reset();
    recorder.clear();
    const std::int64_t t0 = now_ns();
    workload = make_workload(o.workload, o.seed, o.smoke);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_total += setup_s.back();
    setup_spans = recorder.total_ns();  // the set-up phases of this instance
  }

  // A fixed amount of work: the step count depends on the workload and the
  // requested seconds only, never on how fast this host runs it.
  const std::int64_t steps =
      o.smoke ? 60
              : std::max<std::int64_t>(
                    1000, std::llround(o.seconds * workload->steps_per_second()));
  constexpr std::int64_t kRounds = 100;
  // The host a run shares switches between speed regimes that last from
  // seconds to minutes, the fast one up to twice the slow one, and a run's
  // median round mixes them in proportions that vary from run to run. The
  // slow regime shows in nearly every run, so the throughput and median
  // step time are read at the slow end of the run's rounds: at the 5th
  // percentile, not the slowest round, so a few one-round stalls do not
  // decide them.
  constexpr double kSlowRoundShare = 0.05;
  const std::int64_t round_steps = std::max<std::int64_t>(1, steps / kRounds);

  Tally tally;
  recorder.clear();
  if (kTraced) recorder.reserve(static_cast<std::size_t>(steps) * 8);

  std::vector<std::int64_t> step_ns;
  step_ns.reserve(static_cast<std::size_t>(steps));
  std::vector<double> round_rates;
  std::vector<double> round_p50_ns;  ///< median step time of each round
  std::int64_t round_pictures = 0;
  std::int64_t round_ns = 0;
  std::int64_t pictures = 0;
  std::int64_t allocs = 0;
  const long faults_before = usage_now().ru_minflt;
  for (std::int64_t s = 0; s < steps; ++s) {
    recorder.set_step(s);
#if defined(LSM_E2E_TRACED)
    const std::int64_t allocs_before = obs::alloc_count();
#endif
    const std::int64_t t0 = now_ns();
    std::int64_t carried = 0;
    {
      SPAN("step");
      carried = workload->step();
    }
    const std::int64_t elapsed = now_ns() - t0;
#if defined(LSM_E2E_TRACED)
    allocs += obs::alloc_count() - allocs_before;
#endif
    workload->check_step(tally);
    step_ns.push_back(elapsed);
    pictures += carried;
    round_pictures += carried;
    round_ns += elapsed;
    if ((s + 1) % round_steps == 0) {
      round_rates.push_back(static_cast<double>(round_pictures) * 1e9 /
                            static_cast<double>(round_ns));
      round_p50_ns.push_back(percentile(
          std::vector<std::int64_t>(step_ns.end() - round_steps, step_ns.end()),
          0.50));
      round_pictures = 0;
      round_ns = 0;
    }
  }
  const long faults = usage_now().ru_minflt - faults_before;
  workload->check_final(tally);
  tally.check(pictures > 0, "workload carried no pictures");

  obs::JsonWriter json;
  json.begin_object();
  json.key("workload").value(o.workload);
  json.key("traced").value(kTraced);
  json.key("correct").value(tally.failed == 0);
  json.key("attempted").value(tally.attempted);
  json.key("failed").value(tally.failed);
  json.key("first_failure").value(tally.first_failure);
  json.key("steps").value(steps);
  json.key("rounds").value(static_cast<std::int64_t>(round_rates.size()));
  json.key("setups").value(static_cast<std::int64_t>(setup_s.size()));
  json.key("pictures").value(pictures);
  // Minor page faults per step, the untimed output checks included.
  const double faults_per_step =
      static_cast<double>(faults) / static_cast<double>(steps);
  json.key("page_faults_per_step").value(faults_per_step);
  json.key("metrics").begin_object();
  // The pace of the run's slow rounds (see kSlowRoundShare): throughput
  // is the 5th percentile over rounds of (pictures / wall time of the
  // round's steps), the median step time the 95th percentile over rounds
  // of each round's median step.
  json.key("pictures_per_s").value(percentile(round_rates, kSlowRoundShare));
  json.key("step_p50_ms").value(percentile(round_p50_ns, 1.0 - kSlowRoundShare) * 1e-6);
  json.key("step_p99_ms").value(percentile(step_ns, 0.99) * 1e-6);
  json.key("setup_s").value(median(setup_s));
  json.key("peak_rss_mb").value(peak_rss_mib());
  json.key("fail_frac").value(static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted));
  json.end_object();

  if (kTraced) {
    const auto self = recorder.self_ns();
    const auto total = recorder.total_ns();
    LayerMetrics layers;
    for (const LayerMetric& m : layer_metrics()) layers[m.name] = 0.0;
    workload->layer_metrics(self, total, layers);
    // Set-up split of the measured instance: admission (the admit() calls
    // and the epoch that drains them) against warm-up epochs.
    layers["setup.admit_s"] = static_cast<double>(setup_spans["setup.admit"]) * 1e-9;
    layers["setup.warmup_s"] = static_cast<double>(setup_spans["setup.warmup"]) * 1e-9;
    // Driver-level rows: the share of step time no layer span covers, heap
    // allocations per step (counting allocator, traced build only), and
    // minor page faults per step.
    const auto step_total = total.find("step");
    if (step_total != total.end() && step_total->second > 0) {
      layers["unattributed_frac"] = static_cast<double>(self.at("step")) /
                                    static_cast<double>(step_total->second);
    }
    layers["runtime.allocs_per_step"] =
        static_cast<double>(allocs) / static_cast<double>(steps);
    layers["process.page_faults_per_step"] = faults_per_step;
    json.key("layers").begin_object();
    for (const LayerMetric& m : layer_metrics()) {
      json.key(m.name).begin_object();
      json.key("value").value(layers.at(m.name));
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object();
    json.key("spans").value(static_cast<std::int64_t>(recorder.spans().size()));
    if (!o.spans_path.empty() && !recorder.write_csv(o.spans_path)) {
      std::cerr << "lsm_e2e: cannot write " << o.spans_path << "\n";
      return 1;
    }
  }
  write_stamp(json, o);
  json.end_object();
  std::cout << json.str() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lsm::perfbench

int main(int argc, char** argv) {
  try {
    return lsm::perfbench::run(lsm::perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lsm_e2e: " << e.what() << "\n";
    return 1;
  }
}
