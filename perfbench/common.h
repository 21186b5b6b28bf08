#pragma once

// Shared plumbing of the perfbench driver: wall clocks, percentiles, the
// in-memory span tracer, FNV fingerprints, the fail-closed check log and the
// metric report whose JSON form is the driver's last stdout line.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (pct in [0, 100]) of a sample set; 0 when empty.
double Percentile(std::vector<double> samples, double pct);
double Percentile(std::vector<float> samples, double pct);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// \brief The fastest time of each unit (step, round, restore) of a
/// workload whose repetitions do identical, deterministic work.
///
/// Host contention only ever slows a unit down, so its fastest repetition
/// measures the program rather than the host.
class FastestTimes {
 public:
  /// Adds one repetition: the time of every unit, in unit order.
  void Add(const std::vector<double>& unit_times);
  /// Per unit, the fastest time added.
  const std::vector<double>& times() const { return fastest_; }
  double Total() const {
    return std::accumulate(fastest_.begin(), fastest_.end(), 0.0);
  }

 private:
  std::vector<double> fastest_;
};

/// Mean of the samples left after dropping the lowest and highest `trim`
/// share (0 <= trim < 0.5); 0 when empty.
double TrimmedMean(std::vector<double> samples, double trim);

/// \brief Moves the calling thread to the next CPU of the process's
/// original affinity set on every Next(), and restores that set when
/// destroyed.
///
/// Single-threaded workloads rotate between repetitions: on a shared host
/// one core at a time can run markedly slower for tens of seconds, and a
/// thread that never moves would report that core's speed for the whole
/// run. Rotating makes every run sample every core, so the fastest
/// repetition of a table 2 step can come from a core that was not slowed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// splitmix64 of (seed, salt): independent per-purpose seeds from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// FNV-1a 64 over little-endian words and bytes.
struct Fingerprint {
  uint64_t hash = 0xcbf29ce484222325ull;
  void MixByte(uint8_t b) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) MixByte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  /// Length, then the bytes eight at a time (a word-wise FNV variant, so
  /// hashing stays cheap next to the storm's per-frame work).
  void MixBytes(const std::vector<uint8_t>& bytes) {
    Mix(bytes.size());
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, bytes.data() + i, 8);
      hash = (hash ^ w) * 0x100000001b3ull;
    }
    for (; i < bytes.size(); ++i) MixByte(bytes[i]);
  }
};

/// \brief In-memory span tracer for the traced driver.
///
/// A span covers one call into a layer's public function. Spans nest (the
/// open-span stack gives each span its parent), spans opened while a step
/// id is set carry that id, and a span's self time is its duration minus
/// the durations of its direct children. Totals are aggregated online;
/// the first `kMaxKeptSpans` raw spans are kept for the trace file, which
/// is written once, at exit.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    uint64_t step_id;
    int64_t parent;  ///< index into spans(), -1 = root or not kept
    double start_s;  ///< since tracer construction
    double end_s;
  };
  struct Totals {
    double self_s = 0;
    double total_s = 0;
    uint64_t count = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Starts a new step: spans opened from now on carry its id.
  uint64_t NextStep() { return ++step_id_; }

  /// RAII span; a null tracer makes it a no-op.
  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Aggregated self/total time per span name.
  const std::map<std::string, Totals>& totals() const { return totals_; }
  double SelfSeconds(const std::string& name) const;
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes the kept spans as JSON lines; returns false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  struct OpenSpan {
    const char* name;
    Clock::time_point start;
    double child_s;
    int64_t kept_index;
  };
  static constexpr size_t kMaxKeptSpans = 200000;

  void Open(const char* name);
  void Close();

  Clock::time_point origin_;
  uint64_t step_id_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
  std::map<std::string, Totals> totals_;
};

/// \brief Fail-closed output checks: every check that fails is named on
/// stderr and counted; one failure makes the run incorrect.
class CheckLog {
 public:
  /// Records one check; returns `ok` so callers can branch on it.
  bool Expect(bool ok, const std::string& what);
  uint64_t run() const { return run_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t run_ = 0;
  uint64_t failed_ = 0;
};

/// Ordered (name -> value, unit) metric set of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  size_t Size() const { return entries_.size(); }
  /// The contract's last stdout line.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  /// Human-readable "name = value unit" lines.
  std::string Text() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Build and host facts recorded with every run: nproc, build type,
/// compiler and CPU model. `release` is false for unoptimized or
/// assertion-enabled builds and for sanitizer builds, which must not be
/// measured.
struct HostInfo {
  int nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string cpu_model;
  bool release = false;
  std::string Json() const;
};
HostInfo CollectHostInfo();

}  // namespace perfbench
