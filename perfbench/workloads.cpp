// The four workloads. Each one calls only public functions of the lsm
// libraries; the seed picks the generated inputs and nothing else reaches
// the library from the command line. Every thread pool has one worker and
// statmux keeps 4 shards: thread scaling is outside this benchmark.
#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>

#include "core/estimator.h"
#include "core/smoother.h"
#include "core/streaming.h"
#include "core/theorem.h"
#include "mpeg/encoder.h"
#include "mpeg/videogen.h"
#include "net/packetize.h"
#include "net/statmux.h"
#include "net/transport.h"
#include "obs/json_parse.h"
#include "obs/sketch.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "trace/sequences.h"
#include "trace/synthetic.h"

namespace lsm::perfbench {

// ---------------------------------------------------------------------------
// Span recorder

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open(const char* name) {
  int id = 0;
  while (id < static_cast<int>(names_.size()) && names_[id] != name) ++id;
  if (id == static_cast<int>(names_.size())) names_.emplace_back(name);
  Span span;
  span.name = id;
  span.step = step_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_[index].start = now_ns();
  return index;
}

void SpanRecorder::close(int index) {
  spans_[index].end = now_ns();
  stack_.pop_back();
}

std::map<std::string, std::int64_t> SpanRecorder::total_ns() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans_) out[names_[s.name]] += s.end - s.start;
  return out;
}

std::map<std::string, std::int64_t> SpanRecorder::self_ns() const {
  // Children of one span never overlap (one thread, stack discipline), so
  // the part of the parent they cover is the sum of their durations.
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[names_[s.name]] += s.end - s.start - child[i];
  }
  return out;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "step,id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << s.step << ',' << i << ',' << s.parent << ',' << names_[s.name]
         << ',' << s.start << ',' << s.end << '\n';
  }
  return static_cast<bool>(file);
}

namespace {

constexpr double kTau = 1.0 / 30.0;
constexpr double kDelayBound = 0.2;
/// Time comparisons against the delay bound and continuous service use the
/// same absolute tolerance as core::check_theorem1.
constexpr double kTimeTolerance = 1e-9;

double ns_of(const std::map<std::string, std::int64_t>& ns,
             const std::string& name) {
  const auto it = ns.find(name);
  return it == ns.end() ? 0.0 : static_cast<double>(it->second);
}

double per(double value, double count) {
  return count > 0 ? value / count : 0.0;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return sim::splitmix64(state);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Delay slack D - delay, snapped to 0 within the tolerance so the
/// sketch's clamped count (negative slack) means a real violation.
double slack_of(double delay) {
  const double slack = kDelayBound - delay;
  return std::abs(slack) <= kTimeTolerance ? 0.0 : slack;
}


// ---------------------------------------------------------------------------
// codec_live: encoder -> streaming smoother -> health sketch, one stream.

class CodecLive final : public Workload {
 public:
  static constexpr int kGopFrames = 9;

  CodecLive(std::uint64_t seed, bool smoke)
      : encoder_(encoder_config(mpeg::EncoderPath::kAuto)),
        smoother_(trace::GopPattern(9, 3), params()) {
    const int gops = smoke ? 2 : 8;
    sim::Rng rng(mix(seed, 1));
    mpeg::VideoConfig video;
    video.width = 176;
    video.height = 144;
    video.seed = rng.next_u64();
    // One scene per GOP: a scene change re-seeds texture and palette, so
    // every GOP of the pool codes differently. Complexity and motion follow
    // a fixed ladder, so the pool's coding cost does not depend on the
    // seed; the seed picks the texture.
    for (int g = 0; g < gops; ++g) {
      const double step = static_cast<double>(g) / (gops - 1);
      const double mix_step = static_cast<double>((g * 3) % gops) / (gops - 1);
      video.scenes.push_back(
          mpeg::VideoScene{kGopFrames, 0.6 + 0.8 * step, 0.1 + 0.7 * mix_step});
    }
    const std::vector<mpeg::Frame> frames = mpeg::generate_video(video);
    const mpeg::Encoder reference(
        encoder_config(mpeg::EncoderPath::kReference));
    for (int g = 0; g < gops; ++g) {
      gops_.emplace_back(frames.begin() + g * kGopFrames,
                         frames.begin() + (g + 1) * kGopFrames);
      digests_.push_back(fnv1a(reference.encode(gops_.back()).stream));
    }
    // Warm the workspace on every GOP of the pool.
    for (int g = 0; g < gops; ++g) {
      encoder_.encode_into(gops_[g], result_, workspace_);
      warm_ok_ = warm_ok_ && fnv1a(result_.stream) == digests_[g];
    }
    sizes_.resize(kGopFrames);
    sends_.reserve(4 * kGopFrames);
  }

  std::int64_t step() override {
    current_ = next_gop_;
    next_gop_ = (next_gop_ + 1) % static_cast<int>(gops_.size());
    {
      SPAN("mpeg.encode");
      encoder_.encode_into(gops_[current_], result_, workspace_);
    }
    for (const mpeg::EncodedPicture& p : result_.pictures) {
      sizes_[p.display_index] = p.bits;
    }
    sends_.clear();
    {
      SPAN("core.streaming");
      for (const trace::Bits size : sizes_) {
        smoother_.push(size);
        smoother_.drain_into(sends_);
      }
    }
    {
      SPAN("obs.sketch");
      for (const core::PictureSend& send : sends_) {
        delay_sketch_.observe(send.delay);
        slack_sketch_.observe(slack_of(send.delay));
      }
    }
    return kGopFrames;
  }

  void check_step(Tally& tally) override {
    tally.check(fnv1a(result_.stream) == digests_[current_],
                "codec_live: GOP bitstream differs from the reference encode");
    for (const core::PictureSend& send : sends_) {
      bool ok = send.delay <= kDelayBound + kTimeTolerance &&
                send.index == last_index_ + 1;
      if (last_index_ > 0) {
        ok = ok && std::abs(send.start - last_depart_) <= kTimeTolerance;
        rate_changes_ += send.rate != last_rate_ ? 1 : 0;
      }
      tally.check(ok, "codec_live: send breaks delay <= D or t_{i+1} = d_i");
      last_index_ = send.index;
      last_depart_ = send.depart;
      last_rate_ = send.rate;
    }
    decisions_ += static_cast<std::int64_t>(sends_.size());
    pictures_ += kGopFrames;
    for (const mpeg::EncodedPicture& p : result_.pictures) bits_ += p.bits;
  }

  void check_final(Tally& tally) override {
    tally.check(warm_ok_, "codec_live: warm-up encode differs from reference");
    tally.check(slack_sketch_.clamped() == 0,
                "codec_live: delay sketch recorded a delay-bound violation");
  }

  void layer_metrics(const std::map<std::string, std::int64_t>& self_ns,
                     const std::map<std::string, std::int64_t>&,
                     LayerMetrics& out) const override {
    const double pictures = static_cast<double>(pictures_);
    out["mpeg.encode_ns_per_picture"] = per(ns_of(self_ns, "mpeg.encode"), pictures);
    out["mpeg.coded_bits_per_picture"] = per(static_cast<double>(bits_), pictures);
    out["core.streaming_ns_per_picture"] =
        per(ns_of(self_ns, "core.streaming"), pictures);
    out["core.rate_changes_per_picture"] =
        per(static_cast<double>(rate_changes_), static_cast<double>(decisions_));
    out["obs.sketch_ns_per_picture"] = per(ns_of(self_ns, "obs.sketch"), pictures);
  }

  double steps_per_second() const override { return 120.0; }

 private:
  static core::SmootherParams params() {
    core::SmootherParams p;
    p.tau = kTau;
    p.D = kDelayBound;
    p.K = 1;
    p.H = 9;
    return p;
  }

  static mpeg::EncoderConfig encoder_config(mpeg::EncoderPath path) {
    mpeg::EncoderConfig config;
    config.pattern = trace::GopPattern(9, 3);
    config.path = path;
    return config;
  }

  mpeg::Encoder encoder_;
  mpeg::EncodeWorkspace workspace_;
  mpeg::EncodeResult result_;
  core::StreamingSmoother smoother_;
  obs::QuantileSketch delay_sketch_;
  obs::QuantileSketch slack_sketch_;
  std::vector<std::vector<mpeg::Frame>> gops_;
  std::vector<std::uint64_t> digests_;
  std::vector<trace::Bits> sizes_;
  std::vector<core::PictureSend> sends_;
  bool warm_ok_ = true;
  int next_gop_ = 0;
  int current_ = 0;

  int last_index_ = 0;
  double last_depart_ = 0.0;
  double last_rate_ = 0.0;
  std::int64_t rate_changes_ = 0;
  std::int64_t decisions_ = 0;
  std::int64_t pictures_ = 0;
  std::int64_t bits_ = 0;
};

// ---------------------------------------------------------------------------
// trace_faded: smoothing -> Theorem 1 check -> packetize -> live pipeline ->
// faulted pipeline over a Gilbert-Elliott channel, one stream per step.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_sketch(const obs::QuantileSketch& a, const obs::QuantileSketch& b) {
  return a.buckets() == b.buckets() && a.count() == b.count() &&
         a.clamped() == b.clamped() && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

bool same_report(const net::FaultedPipelineReport& x,
                 const net::FaultedPipelineReport& y) {
  const net::PipelineReport& a = x.report;
  const net::PipelineReport& b = y.report;
  if (a.deliveries.size() != b.deliveries.size() ||
      a.underflows != b.underflows ||
      !same_bits(a.max_sender_delay, b.max_sender_delay) ||
      !same_bits(a.worst_delay_excess, b.worst_delay_excess) ||
      !same_bits(a.playout_offset, b.playout_offset) ||
      !same_sketch(a.delay_sketch, b.delay_sketch) ||
      !same_sketch(a.slack_sketch, b.slack_sketch)) {
    return false;
  }
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    const net::PictureDelivery& p = a.deliveries[i];
    const net::PictureDelivery& q = b.deliveries[i];
    if (p.index != q.index || p.late != q.late ||
        !same_bits(p.sender_start, q.sender_start) ||
        !same_bits(p.sender_done, q.sender_done) ||
        !same_bits(p.received, q.received) ||
        !same_bits(p.deadline, q.deadline)) {
      return false;
    }
  }
  return x.degradation.to_json() == y.degradation.to_json();
}

class TraceFaded final : public Workload {
 public:
  TraceFaded(std::uint64_t seed, bool smoke) {
    sim::Rng rng(mix(seed, 2));
    std::vector<trace::Trace> traces;
    if (!smoke) traces = trace::paper_sequences();
    // Lengths, patterns, scene levels and fault levels follow fixed
    // ladders, so the mix's cost and memory do not depend on the seed; the
    // seed draws the per-picture size noise and every channel and fault
    // realization.
    const trace::GopPattern patterns[] = {{9, 3}, {6, 2}, {12, 3}, {15, 3}};
    const int synthetic = smoke ? 4 : 12;
    for (int k = 0; k < synthetic; ++k) {
      trace::SyntheticConfig config;
      config.name = "synthetic-" + std::to_string(k);
      config.seed = rng.next_u64();
      const int frames = smoke ? 30 + 10 * k : 240 + 60 * k;
      const double level = static_cast<double>((k * 5) % synthetic) / (synthetic - 1);
      config.scenes.push_back(trace::SceneSpec{frames / 2, 0.8 + 0.4 * level,
                                               0.1, 0.7 * level});
      config.scenes.push_back(trace::SceneSpec{frames - frames / 2,
                                               1.2 - 0.4 * level,
                                               0.7 * level, 0.1});
      traces.push_back(trace::synthesize(config, patterns[k % 4]));
    }

    const int count = static_cast<int>(traces.size());
    const int sampled_phase = static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < count; ++k) {
      auto s = std::make_unique<Stream>(std::move(traces[k]));
      const double level = static_cast<double>(k) / (count - 1);
      const double level2 = static_cast<double>((k * 7) % count) / (count - 1);
      core::SmootherParams& p = s->config.base.params;
      p.tau = s->trace.tau();
      p.D = kDelayBound;
      p.K = 1;
      p.H = s->trace.pattern().N();
      s->config.base.network_latency = 0.010;
      s->config.base.jitter = 0.002;
      s->config.base.jitter_seed = rng.next_u64();
      const double horizon = s->trace.duration();
      sim::MarkovChannelSpec channel = sim::MarkovChannelSpec::gilbert_elliott(
          0.005 + 0.015 * level2, 0.3, 0.5 + 0.3 * level);
      channel.horizon = horizon;
      channel.seed = rng.next_u64();
      s->config.channel = sim::ChannelPlan::generate(channel);
      s->config.channel_outage_threshold = 0.5;
      s->config.recovery.mode = k % 2 == 0
                                    ? net::DegradationMode::kLatePicture
                                    : net::DegradationMode::kRateRelaxation;
      sim::FaultSpec faults;
      faults.horizon = horizon;
      faults.intensity = 0.2 + 0.3 * level2;
      faults.seed = rng.next_u64();
      s->plan = sim::FaultPlan::generate(faults);
      // A seeded quarter of the streams is checked bitwise against a
      // reference-path run made here.
      s->sampled = (k + sampled_phase) % 4 == 0;
      if (s->sampled) {
        net::FaultedPipelineConfig reference = s->config;
        reference.base.execution_path = core::ExecutionPath::kReference;
        s->reference = net::run_faulted_pipeline(s->trace, reference, s->plan);
      }
      streams_.push_back(std::move(s));
    }
    // Warm: one pass over every stream grows the result buffers.
    for (std::size_t k = 0; k < streams_.size(); ++k) step();
  }

  std::int64_t step() override {
    current_ = next_;
    next_ = (next_ + 1) % streams_.size();
    const Stream& s = *streams_[current_];
    {
      SPAN("core.smooth");
      core::smooth_into(s.trace, s.config.base.params, s.estimator,
                        core::Variant::kBasic, result_);
    }
    {
      SPAN("core.theorem");
      theorem_ = core::check_theorem1(result_, s.trace);
    }
    {
      SPAN("net.packetize");
      cells_ = net::packetize(result_);
    }
    {
      SPAN("net.transport.live");
      live_ = net::run_live_pipeline(s.trace, s.config.base);
    }
    {
      SPAN("net.transport.faulted");
      faulted_ = net::run_faulted_pipeline(s.trace, s.config, s.plan);
    }
    return s.trace.picture_count();
  }

  void check_step(Tally& tally) override {
    const Stream& s = *streams_[current_];
    tally.check(theorem_.all_ok(), "trace_faded: Theorem 1 check failed on " +
                                       s.trace.name());
    tally.check(live_.underflows == 0 && live_.worst_delay_excess == 0.0,
                "trace_faded: clean pipeline underflowed or exceeded D on " +
                    s.trace.name());
    if (s.sampled) {
      tally.check(same_report(faulted_, s.reference),
                  "trace_faded: faulted report differs from the reference "
                  "path on " + s.trace.name());
    }
    pictures_ += s.trace.picture_count();
    runs_ += 1;
    cells_total_ += static_cast<std::int64_t>(cells_.size());
    rate_changes_ += result_.rate_change_count();
    for (const core::StepDiagnostics& d : result_.diagnostics) {
      early_exits_ += d.early_exit ? 1 : 0;
    }
    const runtime::DegradationCounters& c = faulted_.degradation;
    late_ += static_cast<std::int64_t>(c.late_pictures);
    denials_ += static_cast<std::int64_t>(c.denials);
    retries_ += static_cast<std::int64_t>(c.retries);
    giveups_ += static_cast<std::int64_t>(c.giveups);
    transitions_ += static_cast<std::int64_t>(c.channel_transitions);
  }

  void check_final(Tally&) override {}

  void layer_metrics(const std::map<std::string, std::int64_t>& self_ns,
                     const std::map<std::string, std::int64_t>&,
                     LayerMetrics& out) const override {
    const double pictures = static_cast<double>(pictures_);
    const double runs = static_cast<double>(runs_);
    out["core.smooth_ns_per_picture"] = per(ns_of(self_ns, "core.smooth"), pictures);
    out["core.theorem_ns_per_picture"] = per(ns_of(self_ns, "core.theorem"), pictures);
    out["core.rate_changes_per_picture"] =
        per(static_cast<double>(rate_changes_), pictures);
    out["core.early_exit_frac"] = per(static_cast<double>(early_exits_), pictures);
    out["net.packetize_ns_per_picture"] =
        per(ns_of(self_ns, "net.packetize"), pictures);
    out["net.cells_per_picture"] = per(static_cast<double>(cells_total_), pictures);
    out["net.transport.live_ns_per_picture"] =
        per(ns_of(self_ns, "net.transport.live"), pictures);
    out["net.transport.faulted_ns_per_picture"] =
        per(ns_of(self_ns, "net.transport.faulted"), pictures);
    out["net.transport.late_pictures"] = per(static_cast<double>(late_), runs);
    out["net.recovery.renegotiations"] = per(static_cast<double>(denials_), runs);
    out["net.recovery.retries"] = per(static_cast<double>(retries_), runs);
    out["net.recovery.giveups"] = per(static_cast<double>(giveups_), runs);
    out["sim.channel_transitions_per_stream"] =
        per(static_cast<double>(transitions_), runs);
  }

  double steps_per_second() const override { return 1300.0; }

 private:
  struct Stream {
    explicit Stream(trace::Trace t) : trace(std::move(t)), estimator(trace) {}
    trace::Trace trace;
    core::PatternEstimator estimator;  ///< bound to `trace`
    net::FaultedPipelineConfig config;
    sim::FaultPlan plan;
    bool sampled = false;
    net::FaultedPipelineReport reference;
  };

  std::vector<std::unique_ptr<Stream>> streams_;
  std::size_t next_ = 0;
  std::size_t current_ = 0;
  core::SmoothingResult result_;
  core::TheoremReport theorem_;
  std::vector<net::Cell> cells_;
  net::PipelineReport live_;
  net::FaultedPipelineReport faulted_;

  std::int64_t pictures_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t cells_total_ = 0;
  std::int64_t rate_changes_ = 0;
  std::int64_t early_exits_ = 0;
  std::int64_t late_ = 0;
  std::int64_t denials_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t giveups_ = 0;
  std::int64_t transitions_ = 0;
};

// ---------------------------------------------------------------------------
// Statmux workloads. Shared: service construction, per-step epoch counts,
// and the end-of-run health checks.

net::StatmuxConfig mux_config(std::size_t ring_capacity) {
  net::StatmuxConfig config;
  config.shards = 4;
  config.threads = 1;
  config.ring_capacity = ring_capacity;
  config.link_rate_bps = 1e15;  // admission is never rate-limited here
  config.rate_history_limit = 1024;
  return config;
}

net::StreamSpec mux_spec(std::uint32_t id, std::uint64_t feed_seed) {
  net::StreamSpec spec;
  spec.id = id;
  spec.gop_n = 9;
  spec.gop_m = 3;
  spec.params.tau = kTau;
  spec.params.D = kDelayBound;
  spec.params.H = spec.gop_n;
  spec.feed_seed = feed_seed;
  return spec;
}

class MuxBase : public Workload {
 protected:
  explicit MuxBase(const net::StatmuxConfig& config)
      : service_(config), busy_before_(config.shards, 0.0) {}

  /// Marks the end of set-up: counters from here on cover timed steps.
  void start_counting() {
    const net::StatmuxStats stats = service_.stats();
    pictures_seen_ = stats.pictures;
    decisions_before_ = stats.decisions;
    admitted_before_ = stats.admitted;
    for (int s = 0; s < service_.shard_count(); ++s) {
      busy_before_[s] = service_.shard_busy_seconds(s);
    }
  }

  /// One epoch: returns the pictures it pushed.
  std::int64_t epoch() {
    {
      SPAN("net.statmux.epoch");
      service_.run_epoch();
    }
    const std::int64_t pictures = service_.stats().pictures;
    const std::int64_t delta = pictures - pictures_seen_;
    pictures_seen_ = pictures;
    return delta;
  }

  void count_epoch() {
    dirty_ += service_.last_dirty_streams();
    resident_ += service_.active_streams();
    const std::int64_t entries = service_.wheel_entries();
    if (entries > 0) {
      stale_sum_ += static_cast<double>(entries - service_.active_streams()) /
                    static_cast<double>(entries);
    }
    ++epochs_;
  }

  void check_health(Tally& tally, const char* who) {
    const net::StatmuxStats stats = service_.stats();
    tally.check(service_.delay_slack_sketch().clamped() == 0,
                std::string(who) + ": delay slack sketch clamped (delay > D)");
    tally.check(!service_.slo_state().breaching,
                std::string(who) + ": delay-slack SLO in breach");
    tally.check(stats.admitted - stats.departed - stats.finished ==
                    service_.active_streams(),
                std::string(who) + ": admitted - departed - finished != active");
    tally.check(stats.rejected_duplicate + stats.rejected_capacity +
                        stats.rejected_rate == 0,
                std::string(who) + ": statmux rejected an admission");
  }

  void mux_metrics(const std::map<std::string, std::int64_t>& self_ns,
                   const std::map<std::string, std::int64_t>& total_ns,
                   LayerMetrics& out) const {
    const net::StatmuxStats stats = service_.stats();
    const double epochs = static_cast<double>(epochs_);
    const double epoch_ns = ns_of(self_ns, "net.statmux.epoch");
    const double decisions =
        static_cast<double>(stats.decisions - decisions_before_);
    out["net.statmux.epoch_ns"] = per(epoch_ns, epochs);
    out["net.statmux.ns_per_decision"] = per(epoch_ns, decisions);
    out["net.statmux.dirty_per_epoch"] = per(static_cast<double>(dirty_), epochs);
    out["net.statmux.decisions_per_epoch"] = per(decisions, epochs);
    out["net.statmux.resident_streams"] =
        per(static_cast<double>(resident_), epochs);
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (int s = 0; s < service_.shard_count(); ++s) {
      const double busy = service_.shard_busy_seconds(s) - busy_before_[s];
      busy_sum += busy;
      busy_max = std::max(busy_max, busy);
    }
    out["runtime.shard_busy_frac"] =
        per(busy_sum * 1e9, ns_of(total_ns, "net.statmux.epoch"));
    out["runtime.shard_busy_imbalance"] =
        per(busy_max, busy_sum / service_.shard_count());
    out["runtime.wheel_stale_frac"] = per(stale_sum_, epochs);
  }

  net::StatmuxService service_;
  std::vector<double> busy_before_;
  std::int64_t pictures_seen_ = 0;
  std::int64_t decisions_before_ = 0;
  std::int64_t admitted_before_ = 0;
  std::int64_t dirty_ = 0;
  std::int64_t resident_ = 0;
  std::int64_t epochs_ = 0;
  double stale_sum_ = 0.0;
};

// mux_resident: 100k endless streams, ~1k dirty per epoch, a health
// snapshot every 30th epoch (one simulated second).
class MuxResident final : public MuxBase {
 public:
  static constexpr int kSnapshotEvery = 30;

  MuxResident(std::uint64_t seed, bool smoke)
      : MuxBase(mux_config(static_cast<std::size_t>(streams(smoke)) / 4 * 2 + 64)) {
    const int n = streams(smoke);
    const int period = std::max(1, n / 1024);
    {
      // admit() only queues the spec; the first epoch drains the rings
      // and builds every stream.
      SPAN("setup.admit");
      for (int id = 1; id <= n; ++id) {
        net::StreamSpec spec = mux_spec(static_cast<std::uint32_t>(id),
                                        mix(seed, 0x100000000ULL + id));
        spec.period_ticks = period;
        spec.phase_ticks = id % period;
        admit_ok_ = service_.admit(spec) && admit_ok_;
      }
      service_.run_epoch();
    }
    {
      // Every stream past the smoother's bounded-window trim threshold (~84
      // pictures) plus one lap of the timing wheel's first level (256 ticks).
      SPAN("setup.warmup");
      service_.run_epochs(period * 110 + 256);
    }
    start_counting();
  }

  std::int64_t step() override {
    const std::int64_t pictures = epoch();
    snapshot_ = ++steps_ % kSnapshotEvery == 0;
    if (snapshot_) {
      {
        SPAN("obs.health_json");
        json_ = service_.health_json();
      }
      {
        SPAN("obs.parse_json");
        parsed_ = obs::parse_json(json_);
      }
    }
    return pictures;
  }

  void check_step(Tally& tally) override {
    count_epoch();
    if (!snapshot_) return;
    ++snapshots_;
    json_bytes_ += static_cast<std::int64_t>(json_.size());
    tally.check(parsed_.is_object() && parsed_.find("slo") != nullptr,
                "mux_resident: health snapshot did not parse");
    check_health(tally, "mux_resident");
  }

  void check_final(Tally& tally) override {
    tally.check(admit_ok_, "mux_resident: admission ring refused a stream");
    check_health(tally, "mux_resident");
  }

  void layer_metrics(const std::map<std::string, std::int64_t>& self_ns,
                     const std::map<std::string, std::int64_t>& total_ns,
                     LayerMetrics& out) const override {
    mux_metrics(self_ns, total_ns, out);
    const double snapshots = static_cast<double>(snapshots_);
    out["obs.health_json_ns"] = per(ns_of(self_ns, "obs.health_json"), snapshots);
    out["obs.health_json_bytes"] = per(static_cast<double>(json_bytes_), snapshots);
    out["obs.parse_json_ns"] = per(ns_of(self_ns, "obs.parse_json"), snapshots);
  }

  double steps_per_second() const override { return 1500.0; }

 private:
  static int streams(bool smoke) { return smoke ? 4096 : 100000; }

  bool admit_ok_ = true;
  bool snapshot_ = false;
  std::int64_t steps_ = 0;
  std::int64_t snapshots_ = 0;
  std::int64_t json_bytes_ = 0;
  std::string json_;
  obs::JsonValue parsed_;
};

// mux_churn: finite streams, a seeded share departing early, and a fixed
// admission rate per epoch that holds residency near 14k.
class MuxChurn final : public MuxBase {
 public:
  static constexpr int kPeriod = 8;
  static constexpr int kDepartRing = 1024;  ///< > longest early-departure lag

  MuxChurn(std::uint64_t seed, bool smoke)
      : MuxBase(mux_config(1024)),
        seed_(seed),
        admits_per_epoch_(smoke ? 4 : 32),
        departs_(kDepartRing) {
    for (auto& bucket : departs_) bucket.reserve(64);
    pending_.reserve(admits_per_epoch_);
    departing_.reserve(64);
    // Residency reaches steady state after the longest lifetime (96
    // pictures x 8 ticks = 768 epochs); the rest laps the wheel.
    prepare();
    {
      SPAN("setup.warmup");
      for (int e = 0; e < 1024; ++e) {
        step();
        Tally warm;
        check_step(warm);
        warm_failed_ += warm.failed;
      }
    }
    start_counting();
    admit_calls_ = depart_calls_ = epochs_ = dirty_ = resident_ = 0;
    stale_sum_ = 0.0;
  }

  std::int64_t step() override {
    {
      SPAN("net.statmux.admit");
      for (const net::StreamSpec& spec : pending_) {
        refused_ += service_.admit(spec) ? 0 : 1;
      }
    }
    {
      SPAN("net.statmux.depart");
      for (const std::uint32_t id : departing_) {
        refused_ += service_.depart(id) ? 0 : 1;
      }
    }
    return epoch();
  }

  void check_step(Tally& tally) override {
    admit_calls_ += static_cast<std::int64_t>(pending_.size());
    depart_calls_ += static_cast<std::int64_t>(departing_.size());
    tally.record(static_cast<std::int64_t>(pending_.size() + departing_.size()),
                 refused_, "mux_churn: admission ring refused a command");
    refused_ = 0;
    count_epoch();
    if (service_.tick() % 30 == 0) check_health(tally, "mux_churn");
    prepare();
  }

  void check_final(Tally& tally) override {
    tally.check(warm_failed_ == 0, "mux_churn: warm-up step failed a check");
    check_health(tally, "mux_churn");
  }

  void layer_metrics(const std::map<std::string, std::int64_t>& self_ns,
                     const std::map<std::string, std::int64_t>& total_ns,
                     LayerMetrics& out) const override {
    mux_metrics(self_ns, total_ns, out);
    const net::StatmuxStats stats = service_.stats();
    out["net.statmux.admit_ns"] =
        per(ns_of(self_ns, "net.statmux.admit"), static_cast<double>(admit_calls_));
    out["net.statmux.depart_ns"] =
        per(ns_of(self_ns, "net.statmux.depart"), static_cast<double>(depart_calls_));
    out["net.statmux.admit_accept_frac"] =
        per(static_cast<double>(stats.admitted - admitted_before_),
            static_cast<double>(admit_calls_));
  }

  double steps_per_second() const override { return 1100.0; }

 private:
  /// Fills the commands for the next epoch (service_.tick()): fresh ids at
  /// the fixed admission rate, and the early departures due then.
  void prepare() {
    const std::int64_t epoch = service_.tick();
    pending_.clear();
    for (int k = 0; k < admits_per_epoch_; ++k) {
      const std::uint32_t id = next_id_++;
      const std::uint64_t h = mix(seed_, id);
      net::StreamSpec spec = mux_spec(id, h);
      spec.picture_count = 32 + static_cast<int>(h % 65);  // 32..96
      spec.period_ticks = kPeriod;
      spec.phase_ticks = static_cast<int>((h >> 8) % kPeriod);
      pending_.push_back(spec);
      // A quarter departs early, between 10% and 90% of its arrivals —
      // always before its last picture, so the departure is never a no-op.
      if ((h >> 16) % 4 == 0) {
        const double frac = 0.1 + 0.8 * static_cast<double>((h >> 24) % 1024) / 1024.0;
        const std::int64_t lag =
            1 + static_cast<std::int64_t>(frac * (spec.picture_count - 1) * kPeriod);
        departs_[(epoch + lag) % kDepartRing].push_back(id);
      }
    }
    std::vector<std::uint32_t>& due = departs_[epoch % kDepartRing];
    departing_.assign(due.begin(), due.end());
    due.clear();
  }

  std::uint64_t seed_;
  int admits_per_epoch_;
  std::uint32_t next_id_ = 1;
  std::vector<net::StreamSpec> pending_;
  std::vector<std::uint32_t> departing_;
  std::vector<std::vector<std::uint32_t>> departs_;
  std::int64_t refused_ = 0;
  std::int64_t warm_failed_ = 0;
  std::int64_t admit_calls_ = 0;
  std::int64_t depart_calls_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"codec_live", "trace_faded",
                                                 "mux_resident", "mux_churn"};
  return names;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"mpeg.encode_ns_per_picture", "ns"},
      {"mpeg.coded_bits_per_picture", "bits"},
      {"core.streaming_ns_per_picture", "ns"},
      {"core.smooth_ns_per_picture", "ns"},
      {"core.theorem_ns_per_picture", "ns"},
      {"core.rate_changes_per_picture", "count"},
      {"core.early_exit_frac", "ratio"},
      {"net.packetize_ns_per_picture", "ns"},
      {"net.cells_per_picture", "count"},
      {"net.transport.live_ns_per_picture", "ns"},
      {"net.transport.faulted_ns_per_picture", "ns"},
      {"net.transport.late_pictures", "count"},
      {"net.recovery.renegotiations", "count"},
      {"net.recovery.retries", "count"},
      {"net.recovery.giveups", "count"},
      {"sim.channel_transitions_per_stream", "count"},
      {"net.statmux.epoch_ns", "ns"},
      {"net.statmux.ns_per_decision", "ns"},
      {"net.statmux.dirty_per_epoch", "count"},
      {"net.statmux.decisions_per_epoch", "count"},
      {"net.statmux.resident_streams", "count"},
      {"net.statmux.admit_ns", "ns"},
      {"net.statmux.depart_ns", "ns"},
      {"net.statmux.admit_accept_frac", "ratio"},
      {"runtime.shard_busy_frac", "ratio"},
      {"runtime.shard_busy_imbalance", "ratio"},
      {"runtime.wheel_stale_frac", "ratio"},
      {"obs.health_json_ns", "ns"},
      {"obs.health_json_bytes", "bytes"},
      {"obs.parse_json_ns", "ns"},
      {"obs.sketch_ns_per_picture", "ns"},
      {"setup.admit_s", "s"},
      {"setup.warmup_s", "s"},
      {"runtime.allocs_per_step", "count"},
      {"process.page_faults_per_step", "count"},
      {"unattributed_frac", "ratio"},
  };
  return metrics;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "codec_live") return std::make_unique<CodecLive>(seed, smoke);
  if (name == "trace_faded") return std::make_unique<TraceFaded>(seed, smoke);
  if (name == "mux_resident") return std::make_unique<MuxResident>(seed, smoke);
  if (name == "mux_churn") return std::make_unique<MuxChurn>(seed, smoke);
  return nullptr;
}

}  // namespace lsm::perfbench
