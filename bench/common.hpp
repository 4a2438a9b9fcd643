// common.hpp — shared plumbing for the reproduction harnesses: cached
// dataset generation per scenario and uniform output headers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ecosystem.hpp"
#include "crawler/dataset_mmap.hpp"

namespace btpub::bench {

inline constexpr std::uint64_t kDefaultSeed = 42;

/// Directory used to cache generated datasets (override with the
/// BTPUB_CACHE_DIR environment variable). Delete it to force regeneration
/// after changing the generator.
std::string cache_dir();

/// Builds (but does not crawl) the ecosystem for a scenario. Expensive but
/// needed by benches that consult websites / appraisal services.
std::unique_ptr<Ecosystem> build_ecosystem(const ScenarioConfig& config);

/// Returns the scenario's dataset as a mapped snapshot, crawling only on
/// cache miss; the analysis passes read its view() directly.
MappedDataset dataset_for(const ScenarioConfig& config);

/// Like dataset_for, but reuses an already-built ecosystem on cache miss.
MappedDataset dataset_for(const ScenarioConfig& config, Ecosystem& ecosystem);

/// Prints the uniform bench banner:
///   ### <id>: <title>
///   paper: <what the paper reports> | scenario: <name> seed=<seed>
void banner(const std::string& id, const std::string& title,
            const std::string& paper_note, const ScenarioConfig& config);

/// Parses the shared fig/table command line: `--threads N` (0 = hardware
/// concurrency) sets the worker count for ecosystem builds
/// (ScenarioConfig::threads); every analysis pass is serial. The build is
/// byte-identical at any thread count, so the flag changes wall time,
/// never output. Returns 1 when the flag is absent; exits with usage on
/// unknown arguments or a value that is not a whole decimal count.
std::size_t threads_from_args(int argc, char** argv);

}  // namespace btpub::bench
