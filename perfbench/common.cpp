#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void json_number(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) v = -1;  // JSON has no NaN; a finite sentinel
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

bool reset_peak_rss() {
  malloc_trim(0);  // freed set-up memory must not count towards the peak
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
}

void Digest::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t hash_str(std::string_view s) {
  Digest d;
  d.str(s);
  return d.h;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, now_ns(), 0, tracer_->open_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Record& r = tracer_->spans_[static_cast<std::size_t>(index_)];
  r.end_ns = now_ns();
  tracer_->open_ = r.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += static_cast<double>(total - covered) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ostringstream out;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": ";
    json_string(out, r.name);
    out << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
        << ", \"parent\": " << r.parent << "}";
  }
  out << "],\n\"counts\": {";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    json_string(out, name);
    out << ": ";
    json_number(out, value);
  }
  out << "}}\n";
  std::ofstream file(path);
  file << out.str();
}

void Report::gate(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::string Report::to_json() const {
  std::ostringstream out;
  const std::pair<const char*, double> fields[] = {
      {"setup_s", setup_s},
      {"job_s", job_s},
      {"cpu_s", cpu_s},
      {"peak_rss_mb", peak_rss_mb},
      {"announce_p50_us", announce_p50_us},
      {"server_cpu_us_per_req", server_cpu_us_per_req},
  };
  out << "{";
  for (const auto& [name, value] : fields) {
    json_string(out, name);
    out << ": ";
    json_number(out, value);
    out << ", ";
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out << "\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"digest\": \"" << hex << "\", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) out << ", ";
    json_string(out, failures[i]);
  }
  out << "], \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    if (!first) out << ", ";
    first = false;
    json_string(out, name);
    out << ": ";
    json_number(out, value);
  }
  out << "}}";
  return out.str();
}

void export_trace(const Tracer& tracer, const Options& options, Report& report) {
  if (!tracer.enabled()) return;
  for (const auto& [name, seconds] : tracer.self_seconds()) {
    report.layers[name + "_s"] = seconds;
  }
  for (const auto& [name, value] : tracer.counts()) report.layers[name] = value;
  tracer.write(options.dir + "/trace-" + options.workload + "-" +
               std::to_string(options.seed) + ".json");
}

}  // namespace perfbench
