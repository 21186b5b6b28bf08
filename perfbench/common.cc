#include "perfbench/common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

template <typename T>
double NearestRank(std::vector<T> samples, double pct) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  return NearestRank(std::move(samples), pct);
}

double Percentile(std::vector<float> samples, double pct) {
  return NearestRank(std::move(samples), pct);
}

void FastestTimes::Add(const std::vector<double>& unit_times) {
  if (fastest_.empty()) {
    fastest_ = unit_times;
    return;
  }
  for (size_t i = 0; i < fastest_.size() && i < unit_times.size(); ++i) {
    fastest_[i] = std::min(fastest_[i], unit_times[i]);
  }
}

double TrimmedMean(std::vector<double> samples, double trim) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = static_cast<size_t>(
      trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: placement only
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ tracer

void Tracer::Open(const char* name) {
  int64_t kept = -1;
  if (spans_.size() < kMaxKeptSpans) {
    kept = static_cast<int64_t>(spans_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    spans_.push_back({name, step_id_, parent, 0.0, 0.0});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, Clock::now(), 0.0, kept});
}

void Tracer::Close() {
  const Clock::time_point end = Clock::now();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const double dur = std::chrono::duration<double>(end - span.start).count();
  if (!stack_.empty()) stack_.back().child_s += dur;
  Totals& t = totals_[span.name];
  t.self_s += dur - span.child_s;
  t.total_s += dur;
  ++t.count;
  if (span.kept_index >= 0) {
    SpanRecord& rec = spans_[static_cast<size_t>(span.kept_index)];
    rec.start_s = std::chrono::duration<double>(span.start - origin_).count();
    rec.end_s = std::chrono::duration<double>(end - origin_).count();
  }
}

double Tracer::SelfSeconds(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_s;
}

bool Tracer::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"step\": %llu, "
                 "\"parent\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.name, static_cast<unsigned long long>(s.step_id),
                 static_cast<long long>(s.parent), s.start_s, s.end_s);
  }
  for (const auto& [name, t] : totals_) {
    std::fprintf(f,
                 "{\"totals\": \"%s\", \"count\": %llu, \"self_s\": %.9f, "
                 "\"total_s\": %.9f}\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 t.self_s, t.total_s);
  }
  std::fprintf(f, "{\"dropped_spans\": %llu}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ checks/report

bool CheckLog::Expect(bool ok, const std::string& what) {
  ++run_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           JsonNumber(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Text() const {
  std::string out;
  for (const Entry& e : entries_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-36s %14.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += buf;
  }
  return out;
}

// ------------------------------------------------------------------- host

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "x86";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "x86" : s.substr(first);
#else
  return "unknown";
#endif
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

HostInfo CollectHostInfo() {
  HostInfo h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = __VERSION__;
#if defined(__clang__)
  h.compiler = "clang " + h.compiler;
#elif defined(__GNUC__)
  h.compiler = "gcc " + h.compiler;
#endif
  h.cpu_model = CpuModel();
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  h.release = !SanitizerBuild();
#else
  h.release = false;
#endif
  if (SanitizerBuild()) h.build_type += "+sanitizer";
  return h;
}

std::string HostInfo::Json() const {
  return "{\"nproc\": " + std::to_string(nproc) + ", \"build_type\": \"" +
         JsonEscape(build_type) + "\", \"compiler\": \"" +
         JsonEscape(compiler) + "\", \"cpu_model\": \"" +
         JsonEscape(cpu_model) + "\"}";
}

}  // namespace perfbench
