// Zero-copy mmap snapshot: round trips, validation, corruption handling
// (including every analysis pass and the CSV export over mutated
// snapshots), the CSV export's bytes, the load_or_generate cache, and
// consumer identity.
#include "crawler/dataset_mmap.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/content_type.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/income.hpp"
#include "analysis/isp.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/popularity.hpp"
#include "analysis/session.hpp"
#include "crawler/compact_dataset.hpp"
#include "dataset_fixture.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

Dataset sample_dataset(DatasetStyle style) {
  Dataset d;
  d.name = "sample";
  d.style = style;
  d.window_start = hours(2);
  d.window_end = days(40);

  for (int i = 0; i < 40; ++i) {
    TorrentRecord r;
    r.portal_id = static_cast<TorrentId>(i);
    r.infohash = Sha1::hash("torrent" + std::to_string(i));
    r.title = "Content." + std::to_string(i) + ".DVDRip-divxatope.com";
    r.category = static_cast<ContentCategory>(i % 6);
    r.language = static_cast<Language>(i % 4);
    r.size_bytes = 1000000 + i * 7919;
    r.username = "user" + std::to_string(i % 7);  // heavy intern sharing
    if (i % 3 != 0) r.publisher_ip = IpAddress(0x0a000000u + i);
    r.published_at = hours(i);
    r.first_seen = hours(i) + minutes(3);
    if (i % 4 == 0) r.textbox = "Visit http://www.divxatope.com/ !";
    r.payload_filenames = {"film" + std::to_string(i) + ".avi",
                           "Visit-www-divxatope-com.txt"};
    r.piece_count = 100 + i;
    r.observed_removed = i % 10 == 0;
    if (r.observed_removed) r.observed_removed_at = days(2);
    r.initial_seeders = i;
    r.initial_peers = 2 * i;
    r.query_count = 5 + i;
    r.max_concurrent = 3 + i;
    d.torrents.push_back(std::move(r));

    std::vector<IpAddress> ips;
    for (int k = 0; k < i % 9; ++k) {
      ips.emplace_back(0x20000000u + static_cast<std::uint32_t>(i * 100 + k));
    }
    d.downloaders.push_back(std::move(ips));
    std::vector<SimTime> sightings;
    for (int k = 0; k < i % 4; ++k) sightings.push_back(hours(i) + minutes(k));
    d.publisher_sightings.push_back(std::move(sightings));
  }
  for (int u = 0; u < 7; ++u) {
    UserPage page;
    page.username = "user" + std::to_string(u);
    page.banned = u == 5;
    for (int k = 0; k < u; ++k) page.publish_times.push_back(days(k));
    d.user_pages.emplace(page.username, page);
  }
  return d;
}

/// A geo database locating the sample's publisher IPs (10/8) at a host.
GeoDb sample_geo() {
  GeoDb geo;
  const IspId host = geo.add_isp("HostCo", IspType::HostingProvider, "FR");
  geo.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), host, "Paris");
  return geo;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Snapshot layout constants the corruption tests patch by hand: the
// 64-byte file header, then {u32 id, u32 reserved, u64 offset, u64 size}
// section entries.
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kEntryBytes = 24;
constexpr std::uint32_t kSectionCount = 8;
constexpr std::uint32_t kMetaSection = 1;
constexpr std::uint32_t kTorrentPodsSection = 2;
constexpr std::uint32_t kFilenameRefsSection = 4;
constexpr std::uint32_t kUserPodsSection = 7;
constexpr std::size_t kMetaStyleOffset = 16;  // after the two window times

template <typename T>
T get(const std::vector<char>& bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

template <typename T>
void put(std::vector<char>& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

/// {offset, size} of section `id`, read from the section table.
std::pair<std::size_t, std::size_t> section_of(const std::vector<char>& bytes,
                                               std::uint32_t id) {
  for (std::uint32_t k = 0; k < kSectionCount; ++k) {
    const std::size_t entry = kHeaderBytes + kEntryBytes * k;
    if (get<std::uint32_t>(bytes, entry) == id) {
      return {get<std::uint64_t>(bytes, entry + 8),
              get<std::uint64_t>(bytes, entry + 16)};
    }
  }
  ADD_FAILURE() << "no section " << id;
  return {0, 0};
}

TEST(CompactDataset, LosslessRoundTripAllStyles) {
  for (const DatasetStyle style :
       {DatasetStyle::Mn08, DatasetStyle::Pb09, DatasetStyle::Pb10}) {
    const Dataset original = sample_dataset(style);
    const CompactDataset compact = compact_dataset(original);
    expect_view_matches(original, compact.view());
  }
}

TEST(CompactDataset, InternSharesBytes) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const CompactDataset compact = compact_dataset(original);
  // 7 usernames and 1 repeated payload filename across 40 torrents: the
  // arena must hold each distinct string once.
  std::size_t distinct_total = 0;
  std::vector<std::string> seen;
  auto note = [&](const std::string& s) {
    if (s.empty()) return;
    for (const std::string& t : seen) {
      if (t == s) return;
    }
    seen.push_back(s);
    distinct_total += s.size();
  };
  for (const TorrentRecord& r : original.torrents) {
    note(r.title);
    note(r.username);
    note(r.textbox);
    for (const std::string& f : r.payload_filenames) note(f);
  }
  EXPECT_EQ(compact.text.size(), distinct_total);
}

TEST(CompactDataset, SummaryHelpersMatchDataset) {
  const Dataset original = sample_dataset(DatasetStyle::Pb09);
  const CompactDataset compact = compact_dataset(original);
  const CompactDatasetView view = compact.view();
  std::size_t with_username = 0, with_publisher_ip = 0, observations = 0;
  for (const TorrentRecord& r : original.torrents) {
    with_username += !r.username.empty();
    with_publisher_ip += r.publisher_ip.has_value();
  }
  std::set<IpAddress> distinct;
  for (const std::vector<IpAddress>& ips : original.downloaders) {
    observations += ips.size();
    distinct.insert(ips.begin(), ips.end());
  }
  EXPECT_EQ(view.torrent_count(), original.torrents.size());
  EXPECT_EQ(view.with_username(), with_username);
  EXPECT_EQ(view.with_publisher_ip(), with_publisher_ip);
  EXPECT_EQ(view.distinct_ips_global(), distinct.size());
  EXPECT_EQ(view.ip_observations_total(), observations);
  EXPECT_EQ(view.distinct_downloader_ips(),
            std::vector<IpAddress>(distinct.begin(), distinct.end()));
}

TEST(CsvExport, HandBuiltDatasetExactText) {
  Dataset d;
  d.name = "csv";
  d.window_end = days(1);
  // A title that needs quoting, no username, no publisher IP, removed, and
  // no sightings.
  TorrentRecord quoted;
  quoted.portal_id = 3;
  quoted.infohash = Sha1Digest::from_hex("0123456789abcdef0123456789abcdef01234567");
  quoted.title = "Movie, \"Special\" Edition";
  quoted.category = ContentCategory::TvShows;
  quoted.published_at = 3600;
  quoted.observed_removed = true;
  quoted.observed_removed_at = 7000;
  d.torrents.push_back(quoted);
  d.downloaders.push_back({IpAddress(1, 2, 3, 4), IpAddress(5, 6, 7, 8)});
  d.publisher_sightings.emplace_back();
  // A plain row: identified publisher, sightings, no downloaders.
  TorrentRecord plain;
  plain.portal_id = 7;
  plain.infohash = Sha1Digest::from_hex("fedcba9876543210fedcba9876543210fedcba98");
  plain.title = "plain";
  plain.category = ContentCategory::Ebooks;
  plain.username = "alice";
  plain.publisher_ip = IpAddress(10, 0, 0, 5);
  plain.published_at = 7200;
  d.torrents.push_back(plain);
  d.downloaders.emplace_back();
  d.publisher_sightings.push_back({7300, 7900});

  const CompactDataset compact = compact_dataset(d);
  std::ostringstream torrents, sightings;
  write_csv(compact.view(), torrents, sightings);
  EXPECT_EQ(torrents.str(),
            "portal_id,infohash,title,category,username,publisher_ip,"
            "published_at,downloads,removed\n"
            "3,0123456789abcdef0123456789abcdef01234567,"
            "\"Movie, \"\"Special\"\" Edition\",TV-Shows,,,3600,2,1\n"
            "7,fedcba9876543210fedcba9876543210fedcba98,plain,E-books,alice,"
            "10.0.0.5,7200,0,0\n");
  EXPECT_EQ(sightings.str(),
            "portal_id,time_seconds\n"
            "7,7300\n"
            "7,7900\n");
}

TEST(MappedDataset, RoundTripAllStyles) {
  for (const DatasetStyle style :
       {DatasetStyle::Mn08, DatasetStyle::Pb09, DatasetStyle::Pb10}) {
    const Dataset original = sample_dataset(style);
    const std::string path = tmp_path("roundtrip.mmap");
    save_mmap_snapshot(compact_dataset(original), path);
    const MappedDataset mapped(path);
    expect_view_matches(original, mapped.view());
  }
}

TEST(MappedDataset, EmptyDataset) {
  Dataset empty;
  empty.name = "empty";
  empty.style = DatasetStyle::Mn08;
  const std::string path = tmp_path("empty.mmap");
  save_mmap_snapshot(compact_dataset(empty), path);
  const MappedDataset mapped(path);
  EXPECT_EQ(mapped.view().torrent_count(), 0u);
  EXPECT_EQ(mapped.view().name, "empty");
  expect_view_matches(empty, mapped.view());
}

TEST(MappedDataset, SavingOverAnOpenSnapshotLeavesItsViewIntact) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("overwritten.mmap");
  save_mmap_snapshot(compact_dataset(original), path);
  const MappedDataset mapped(path);

  Dataset smaller;
  smaller.name = "smaller";
  smaller.style = DatasetStyle::Mn08;
  save_mmap_snapshot(compact_dataset(smaller), path);
  EXPECT_EQ(MappedDataset(path).view().name, "smaller");

  // The open view must still read the bytes it validated. A child reads
  // it, so a SIGBUS from a mapping truncated under it fails the test
  // instead of killing the test binary.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    expect_view_matches(original, mapped.view());
    std::_Exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
}

TEST(MappedDataset, RejectsMissingFile) {
  EXPECT_THROW(MappedDataset(tmp_path("does_not_exist.mmap")),
               std::runtime_error);
}

TEST(MappedDataset, RejectsTruncatedFile) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("trunc.mmap");
  save_mmap_snapshot(compact_dataset(original), path);
  const std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);
  // Cut inside the header, then inside the sections.
  spit(path, std::vector<char>(bytes.begin(), bytes.begin() + 20));
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
  spit(path, std::vector<char>(bytes.begin(),
                               bytes.begin() +
                                   static_cast<std::ptrdiff_t>(bytes.size() / 2)));
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsBadMagicAndVersion) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("magic.mmap");
  save_mmap_snapshot(compact_dataset(original), path);
  std::vector<char> bytes = slurp(path);

  std::vector<char> bad = bytes;
  bad[0] ^= 0x40;
  spit(path, bad);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);

  // Version field sits right after the 8-byte magic.
  bad = bytes;
  std::uint32_t version = 0;
  std::memcpy(&version, bad.data() + 8, sizeof version);
  version += 1;
  std::memcpy(bad.data() + 8, &version, sizeof version);
  spit(path, bad);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsCorruptSectionTable) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("table.mmap");
  save_mmap_snapshot(compact_dataset(original), path);
  std::vector<char> bytes = slurp(path);
  // First section entry: {u32 id, u32 reserved, u64 offset, u64 size} at
  // byte 64. Point it past the end of the file.
  const std::uint64_t bogus = bytes.size() + 4096;
  std::memcpy(bytes.data() + 64 + 8, &bogus, sizeof bogus);
  spit(path, bytes);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsCorruptRecordPayloadOnOpen) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("payload.mmap");
  save_mmap_snapshot(compact_dataset(original), path);
  std::vector<char> bytes = slurp(path);

  // Blow up the first record's title length: the per-record pass at open
  // rejects it, naming the file and the field.
  const std::size_t pods = section_of(bytes, kTorrentPodsSection).first;
  ASSERT_NE(pods, 0u);
  put(bytes, pods + offsetof(TorrentRecordPod, title) + offsetof(StrRef, length),
      std::uint32_t{0xffffffffu});
  spit(path, bytes);
  try {
    const MappedDataset mapped(path);
    FAIL() << "corrupt title ref accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("title ref"), std::string::npos) << what;
  }

  // validate() runs the same checks over an in-memory view.
  CompactDataset compact = compact_dataset(original);
  compact.torrents[0].sightings.end = 1000;
  EXPECT_THROW(validate(compact.view()), std::runtime_error);

  // A time whose difference with its neighbours overflows int64 is
  // rejected before the session reconstruction can subtract it.
  compact = compact_dataset(original);
  ASSERT_FALSE(compact.sightings.empty());
  compact.sightings.back() = std::numeric_limits<SimTime>::min();
  EXPECT_THROW(validate(compact.view()), std::runtime_error);
}

TEST(MappedDataset, RejectsOutOfRangeEnumBytes) {
  const std::string path = tmp_path("enum.mmap");
  save_mmap_snapshot(compact_dataset(sample_dataset(DatasetStyle::Pb10)), path);
  const std::vector<char> bytes = slurp(path);

  // The style byte is checked at open (O(1), so open stays O(sections)).
  std::vector<char> bad = bytes;
  put(bad, section_of(bytes, kMetaSection).first + kMetaStyleOffset,
      std::uint32_t{0xff});
  spit(path, bad);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);

  // Per-record category and language bytes are checked by the O(n) pass.
  const std::size_t pods = section_of(bytes, kTorrentPodsSection).first;
  for (const std::size_t field : {offsetof(TorrentRecordPod, category),
                                  offsetof(TorrentRecordPod, language)}) {
    bad = bytes;
    put(bad, pods + field, std::uint8_t{0xff});
    spit(path, bad);
    EXPECT_THROW(MappedDataset{path}, std::runtime_error) << field;
  }
}

/// Runs every analysis pass over `view`, as the fig/table binaries,
/// `btpub analyze` and the benchmark do.
void run_every_pass(const CompactDatasetView& view) {
  static const GeoDb geo = sample_geo();
  static const WebsiteDirectory websites;
  static const AppraisalPanel panel = AppraisalPanel::standard();
  constexpr double kPercents[] = {10, 50, 100};
  (void)view.distinct_ips_global();
  for (const TorrentRecordPod& pod : view.torrents) (void)find_promotion(view, pod);
  const IdentityAnalysis identity(view, geo, 10);
  Rng rng(7);
  const ClassificationResult classification =
      classify_top_publishers(view, identity, websites, 3, rng);
  for (const UsernameStats& stats : identity.usernames()) {
    (void)seeding_metrics(view, stats.torrents);
  }
  (void)seeding_panel(view, identity, 4, rng);
  (void)downloader_demographics(view, geo);
  (void)publisher_countries(view, geo);
  (void)top_publisher_consumption(view, identity);
  (void)top_publisher_isps(view, geo);
  (void)isp_feeder_profile(view, geo, "HostCo");
  (void)consumers_from_isp(view, geo, "HostCo");
  (void)top_hosting_share(identity, geo, "HostCo");
  (void)content_type_panel(view, identity);
  (void)longitudinal_table(view, classification);
  (void)money_flows(view, classification, websites, panel, geo);
  (void)contribution_curve(identity, kPercents);
  (void)popularity_panel(identity, 4, rng);
}

/// Writes `bytes` to `path`, opens it, runs every analysis pass on the
/// view and exports it as CSV. A mutated snapshot must either load or throw
/// std::runtime_error at open: any other exception fails the test, and an
/// out-of-bounds access trips the ASan/UBSan build.
void open_and_analyse(const std::string& path, const std::vector<char>& bytes) {
  spit(path, bytes);
  std::optional<MappedDataset> mapped;
  try {
    mapped.emplace(path);
  } catch (const std::runtime_error&) {
    return;
  }
  run_every_pass(mapped->view());
  std::ostringstream torrents, sightings;
  write_csv(mapped->view(), torrents, sightings);
}

TEST(MappedDataset, SeededMutationsThrowOrLoad) {
  const std::string path = tmp_path("mutate.mmap");
  save_mmap_snapshot(compact_dataset(sample_dataset(DatasetStyle::Pb10)), path);
  const std::vector<char> clean = slurp(path);
  Rng rng(0x5eed);  // fixed: the same mutations on every run, no corpus

  // Bit flips: every bit of the header and section table, then random
  // bits anywhere in the file.
  const std::size_t table_end = kHeaderBytes + kSectionCount * kEntryBytes;
  for (std::size_t bit = 0; bit < table_end * 8; ++bit) {
    std::vector<char> m = clean;
    m[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    open_and_analyse(path, m);
  }
  for (int k = 0; k < 2000; ++k) {
    std::vector<char> m = clean;
    const std::size_t bit = rng.index(clean.size() * 8);
    m[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    open_and_analyse(path, m);
  }

  // Truncations at a stride co-prime with the 64-byte section alignment.
  for (std::size_t len = 0; len < clean.size(); len += 61) {
    const auto end = clean.begin() + static_cast<std::ptrdiff_t>(len);
    open_and_analyse(path, std::vector<char>(clean.begin(), end));
  }

  // Inflated section offsets and sizes.
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t k = 0; k < kSectionCount; ++k) {
    const std::size_t entry = kHeaderBytes + kEntryBytes * k;
    for (const std::uint64_t v : {std::uint64_t{clean.size()},
                                  std::uint64_t{clean.size()} + 64, kMax64,
                                  kMax64 - 63, std::uint64_t{1} << 40}) {
      for (const std::size_t field : {std::size_t{8}, std::size_t{16}}) {
        std::vector<char> m = clean;
        put(m, entry + field, v);
        open_and_analyse(path, m);
      }
    }
  }

  // Inflated StrRef offsets/lengths and Span32 bounds in every row.
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  auto inflate_fields = [&](std::uint32_t section, std::size_t row_bytes,
                            std::initializer_list<std::size_t> fields) {
    const auto [offset, size] = section_of(clean, section);
    for (std::size_t row = offset; row + row_bytes <= offset + size;
         row += row_bytes) {
      for (const std::size_t field : fields) {
        for (const std::uint32_t v :
             {kMax32, get<std::uint32_t>(clean, row + field) + 1}) {
          std::vector<char> m = clean;
          put(m, row + field, v);
          open_and_analyse(path, m);
        }
      }
    }
  };
  constexpr std::size_t kLength = offsetof(StrRef, length);
  constexpr std::size_t kEnd = offsetof(Span32, end);
  inflate_fields(kTorrentPodsSection, sizeof(TorrentRecordPod),
                 {offsetof(TorrentRecordPod, title),
                  offsetof(TorrentRecordPod, title) + kLength,
                  offsetof(TorrentRecordPod, username) + kLength,
                  offsetof(TorrentRecordPod, textbox) + kLength,
                  offsetof(TorrentRecordPod, payload_filenames) + kEnd,
                  offsetof(TorrentRecordPod, downloaders),
                  offsetof(TorrentRecordPod, downloaders) + kEnd,
                  offsetof(TorrentRecordPod, sightings) + kEnd});
  inflate_fields(kFilenameRefsSection, sizeof(StrRef), {0, kLength});
  inflate_fields(kUserPodsSection, sizeof(UserPagePod),
                 {offsetof(UserPagePod, username) + kLength,
                  offsetof(UserPagePod, publish_times) + kEnd});
}

TEST(LoadOrGenerate, ColdGeneratesWarmReloads) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("cache.mmap");
  std::remove(path.c_str());

  int calls = 0;
  auto generate = [&] {
    ++calls;
    return sample_dataset(DatasetStyle::Pb10);
  };
  const MappedDataset first = load_or_generate(path, generate);
  EXPECT_EQ(calls, 1);
  expect_view_matches(original, first.view());

  // The second call is served from the snapshot; generate() is not run.
  const MappedDataset second = load_or_generate(path, generate);
  EXPECT_EQ(calls, 1);
  expect_view_matches(original, second.view());
}

TEST(LoadOrGenerate, RejectedCacheWarnsAndIsReplaced) {
  const std::string path = tmp_path("garbage_cache.mmap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  int calls = 0;
  ::testing::internal::CaptureStderr();
  const MappedDataset d = load_or_generate(path, [&] {
    ++calls;
    return sample_dataset(DatasetStyle::Pb10);
  });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);
  // One line naming the rejected path and the reason it was rejected.
  EXPECT_NE(err.find("rejected cached dataset " + path), std::string::npos)
      << err;
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  // The garbage was replaced by a snapshot that opens and holds the data.
  expect_view_matches(sample_dataset(DatasetStyle::Pb10), d.view());
  expect_view_matches(sample_dataset(DatasetStyle::Pb10),
                      MappedDataset(path).view());
}

TEST(LoadOrGenerate, FailedSaveThrowsNamingPathAndErrno) {
  // The result is read back from the saved file, so a cache that cannot
  // be written is an error, not a warning. Here the parent "directory" is
  // a regular file.
  const std::string blocker = tmp_path("cache_parent_is_a_file");
  {
    std::ofstream out(blocker, std::ios::trunc);
    out << "not a directory";
  }
  const std::string path = blocker + "/cache.mmap";
  try {
    (void)load_or_generate(path, [] { return sample_dataset(DatasetStyle::Pb10); });
    FAIL() << "load_or_generate returned without a saved snapshot";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("errno " + std::to_string(ENOTDIR)), std::string::npos)
        << what;
  }
}

/// Compares two identity analyses field by field.
void expect_same_analysis(const IdentityAnalysis& a, const IdentityAnalysis& b) {
  ASSERT_EQ(a.usernames().size(), b.usernames().size());
  for (std::size_t i = 0; i < a.usernames().size(); ++i) {
    const UsernameStats& x = a.usernames()[i];
    const UsernameStats& y = b.usernames()[i];
    EXPECT_EQ(x.username, y.username);
    EXPECT_EQ(x.torrents, y.torrents);
    EXPECT_EQ(x.content_count, y.content_count);
    EXPECT_EQ(x.download_count, y.download_count);
    EXPECT_EQ(x.ips, y.ips);
    EXPECT_EQ(x.banned, y.banned);
  }
  ASSERT_EQ(a.ips().size(), b.ips().size());
  for (std::size_t i = 0; i < a.ips().size(); ++i) {
    EXPECT_EQ(a.ips()[i].ip, b.ips()[i].ip);
    EXPECT_EQ(a.ips()[i].usernames, b.ips()[i].usernames);
    EXPECT_EQ(a.ips()[i].banned_usernames, b.ips()[i].banned_usernames);
  }
  EXPECT_EQ(a.fake_usernames(), b.fake_usernames());
  EXPECT_EQ(a.top(), b.top());
  EXPECT_EQ(a.top_hp(), b.top_hp());
  EXPECT_EQ(a.top_ci(), b.top_ci());
  EXPECT_EQ(a.total_content(), b.total_content());
  EXPECT_EQ(a.total_downloads(), b.total_downloads());
}

TEST(IdentityAnalysis, MmapViewMatchesCompactView) {
  const CompactDataset compact = compact_dataset(sample_dataset(DatasetStyle::Pb10));
  const GeoDb geo = sample_geo();
  const IdentityAnalysis from_view(compact.view(), geo, 10);

  const std::string path = tmp_path("identity.mmap");
  save_mmap_snapshot(compact, path);
  const MappedDataset mapped(path);
  const IdentityAnalysis from_mmap(mapped.view(), geo, 10);
  expect_same_analysis(from_view, from_mmap);
}

TEST(Classify, IdenticalOnReloadedDatasets) {
  const CompactDataset original = compact_dataset(sample_dataset(DatasetStyle::Pb10));
  const GeoDb geo = sample_geo();
  WebsiteDirectory websites;

  const std::string path = tmp_path("classify.mmap");
  save_mmap_snapshot(original, path);
  const MappedDataset mapped(path);

  auto classify = [&](const CompactDatasetView& view) {
    const IdentityAnalysis identity(view, geo, 10);
    Rng rng(1234);
    return classify_top_publishers(view, identity, websites, 3, rng);
  };
  const ClassificationResult a = classify(original.view());
  const ClassificationResult b = classify(mapped.view());

  auto expect_same = [](const ClassificationResult& x,
                        const ClassificationResult& y) {
    ASSERT_EQ(x.profiles.size(), y.profiles.size());
    for (std::size_t i = 0; i < x.profiles.size(); ++i) {
      EXPECT_EQ(x.profiles[i].username, y.profiles[i].username);
      EXPECT_EQ(x.profiles[i].cls, y.profiles[i].cls);
      EXPECT_EQ(x.profiles[i].domain, y.profiles[i].domain);
      EXPECT_EQ(x.profiles[i].content_count, y.profiles[i].content_count);
      EXPECT_EQ(x.profiles[i].download_count, y.profiles[i].download_count);
    }
  };
  expect_same(a, b);
}

TEST(Classify, OutOfRangeLanguageOnViewCountsAsOther) {
  // A snapshot with bad language bytes never opens, but a hand-built view
  // skips validate(); a corrupt byte there must not index past the
  // per-language counters. It is counted as Other.
  CompactDataset compact = compact_dataset(sample_dataset(DatasetStyle::Pb10));
  for (TorrentRecordPod& pod : compact.torrents) pod.language = 0xff;

  const GeoDb geo = sample_geo();
  WebsiteDirectory websites;
  const IdentityAnalysis identity(compact.view(), geo, 10);
  Rng rng(1234);
  const ClassificationResult result =
      classify_top_publishers(compact.view(), identity, websites, 3, rng);
  ASSERT_FALSE(result.profiles.empty());
  for (const PublisherProfile& profile : result.profiles) {
    EXPECT_EQ(profile.dominant_language, Language::Other) << profile.username;
  }
}

}  // namespace
}  // namespace btpub
