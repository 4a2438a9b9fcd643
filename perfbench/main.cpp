// perfbench: runs one workload once in this process and prints
// one JSON line (see common.hpp, Report). run.py spawns a fresh process
// per repetition and aggregates.
//
// Usage: perfbench <workload> --seed N --dir PATH [--trace 0|1]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <workload> --seed N --dir PATH "
                         "[--trace 0|1]\n");
    return 2;
  }
  Options options;
  options.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.dir.empty()) {
    std::fprintf(stderr, "perfbench: --dir is required\n");
    return 2;
  }
  try {
    Report report;
    if (options.workload == "simulate_quick") {
      report = run_simulate_quick(options);
    } else if (options.workload == "analysis_1m") {
      report = run_analysis_1m(options);
    } else if (options.workload == "dht_spoofed") {
      report = run_dht_spoofed(options);
    } else if (options.workload == "serve_udp") {
      report = run_serve_udp(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
    std::printf("%s\n", report.to_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
