#include "common.hpp"

#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace btpub::bench {

std::string cache_dir() {
  if (const char* env = std::getenv("BTPUB_CACHE_DIR")) return env;
  return "btpub-cache";
}

std::unique_ptr<Ecosystem> build_ecosystem(const ScenarioConfig& config) {
  auto ecosystem = std::make_unique<Ecosystem>(config);
  ecosystem->build();
  return ecosystem;
}

namespace {

std::string cache_path(const ScenarioConfig& config) {
  // The format version is part of the key: bumping the snapshot layout
  // starts fresh btpub-cache/*.mmap files instead of rejecting (and
  // warning about) the stale ones.
  return cache_dir() + "/" + config.name + "_seed" + std::to_string(config.seed) +
         "_w" + std::to_string(config.window / kDay) + "_v" +
         std::to_string(mmap_format_version()) + ".mmap";
}

}  // namespace

MappedDataset dataset_for(const ScenarioConfig& config) {
  return load_or_generate(cache_path(config), [&config]() {
    std::fprintf(stderr, "[btpub] generating %s (seed %llu) — first run only\n",
                 config.name.c_str(),
                 static_cast<unsigned long long>(config.seed));
    Ecosystem ecosystem(config);
    ecosystem.build();
    return ecosystem.crawl();
  });
}

MappedDataset dataset_for(const ScenarioConfig& config, Ecosystem& ecosystem) {
  return load_or_generate(cache_path(config),
                          [&ecosystem]() { return ecosystem.crawl(); });
}

std::size_t threads_from_args(int argc, char** argv) {
  std::size_t threads = 1;
  parse_flags(argc, argv, "[--threads N]", {{"--threads", &threads}});
  return threads;
}

void banner(const std::string& id, const std::string& title,
            const std::string& paper_note, const ScenarioConfig& config) {
  std::printf("### %s: %s\n", id.c_str(), title.c_str());
  std::printf("    paper: %s\n", paper_note.c_str());
  std::printf("    scenario: %s  seed=%llu  window=%lldd\n\n",
              config.name.c_str(), static_cast<unsigned long long>(config.seed),
              static_cast<long long>(config.window / kDay));
}

}  // namespace btpub::bench
