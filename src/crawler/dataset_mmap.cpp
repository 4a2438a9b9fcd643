#include "crawler/dataset_mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace btpub {
namespace {

// The arrays are written and reinterpreted verbatim; the format is defined
// little-endian, which every supported target already is.
static_assert(std::endian::native == std::endian::little,
              "the mmap snapshot format is little-endian");

constexpr int kVersion = 1;
constexpr char kMagic[8] = {'B', 'T', 'P', 'U', 'B', 'M', 'A', 'P'};
constexpr std::size_t kSectionAlign = 64;

enum class SectionId : std::uint32_t {
  Meta = 1,
  TorrentPods = 2,
  Text = 3,
  FilenameRefs = 4,
  PeerBlob = 5,
  Sightings = 6,
  UserPods = 7,
  UserTimes = 8,
};
constexpr std::uint32_t kSectionCount = 8;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t file_bytes;
  std::uint8_t reserved[40];
};
static_assert(sizeof(FileHeader) == 64);
static_assert(std::is_trivially_copyable_v<FileHeader>);

struct SectionEntry {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;
  std::uint64_t size;
};
static_assert(sizeof(SectionEntry) == 24);

/// Fixed front of the Meta section; the dataset name follows it.
struct MetaFixed {
  std::int64_t window_start;
  std::int64_t window_end;
  std::uint32_t style;
  std::uint32_t name_length;
};
static_assert(sizeof(MetaFixed) == 24);

constexpr std::size_t align_up(std::size_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("dataset_mmap: " + what);
}

void write_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) fail("write failed");
}

void pad_to(std::ostream& out, std::size_t& written, std::size_t target) {
  static constexpr char zeros[kSectionAlign] = {};
  while (written < target) {
    const std::size_t chunk = std::min(target - written, sizeof zeros);
    write_bytes(out, zeros, chunk);
    written += chunk;
  }
}

}  // namespace

int mmap_format_version() noexcept { return kVersion; }

void save_mmap_snapshot(const CompactDataset& dataset, std::ostream& out) {
  // Section payloads in table order.
  const std::size_t meta_size = sizeof(MetaFixed) + dataset.name.size();
  const std::pair<SectionId, std::pair<const void*, std::size_t>> sections[] = {
      {SectionId::Meta, {nullptr, meta_size}},
      {SectionId::TorrentPods,
       {dataset.torrents.data(),
        dataset.torrents.size() * sizeof(TorrentRecordPod)}},
      {SectionId::Text, {dataset.text.data(), dataset.text.size()}},
      {SectionId::FilenameRefs,
       {dataset.filename_refs.data(),
        dataset.filename_refs.size() * sizeof(StrRef)}},
      {SectionId::PeerBlob, {dataset.peer_blob.data(), dataset.peer_blob.size()}},
      {SectionId::Sightings,
       {dataset.sightings.data(), dataset.sightings.size() * sizeof(SimTime)}},
      {SectionId::UserPods,
       {dataset.user_pages.data(),
        dataset.user_pages.size() * sizeof(UserPagePod)}},
      {SectionId::UserTimes,
       {dataset.user_publish_times.data(),
        dataset.user_publish_times.size() * sizeof(SimTime)}},
  };

  // Lay out offsets: header, table, then 64-byte aligned sections.
  std::vector<SectionEntry> table(kSectionCount);
  std::size_t offset =
      align_up(sizeof(FileHeader) + kSectionCount * sizeof(SectionEntry));
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    table[i].id = static_cast<std::uint32_t>(sections[i].first);
    table[i].reserved = 0;
    table[i].offset = offset;
    table[i].size = sections[i].second.second;
    offset = align_up(offset + sections[i].second.second);
  }

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kVersion;
  header.section_count = kSectionCount;
  header.file_bytes = offset;

  std::size_t written = 0;
  write_bytes(out, &header, sizeof header);
  written += sizeof header;
  write_bytes(out, table.data(), table.size() * sizeof(SectionEntry));
  written += table.size() * sizeof(SectionEntry);

  for (std::size_t i = 0; i < kSectionCount; ++i) {
    pad_to(out, written, table[i].offset);
    if (sections[i].first == SectionId::Meta) {
      MetaFixed meta{};
      meta.window_start = dataset.window_start;
      meta.window_end = dataset.window_end;
      meta.style = static_cast<std::uint32_t>(dataset.style);
      meta.name_length = static_cast<std::uint32_t>(dataset.name.size());
      write_bytes(out, &meta, sizeof meta);
      write_bytes(out, dataset.name.data(), dataset.name.size());
    } else if (table[i].size > 0) {
      write_bytes(out, sections[i].second.first, table[i].size);
    }
    written += table[i].size;
  }
  pad_to(out, written, offset);  // trailing pad so file_bytes is exact
  out.flush();
  if (!out) fail("write failed");
}

void save_mmap_snapshot(const CompactDataset& dataset, const std::string& path) {
  // Written beside `path` and renamed over it, so a view already open on
  // `path` keeps the bytes it validated.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const auto cannot_write = [&](int err) {
    fail("cannot write " + path + " (via " + tmp + ", errno " +
         std::to_string(err) + ": " + (err != 0 ? std::strerror(err) : "-") + ")");
  };
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) cannot_write(errno);
  try {
    save_mmap_snapshot(dataset, out);  // flushes and checks the stream
    if (std::rename(tmp.c_str(), path.c_str()) != 0) cannot_write(errno);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

MappedDataset::MappedDataset(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open " + path + ": " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail("cannot stat " + path + ": " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < sizeof(FileHeader)) {
    ::close(fd);
    fail(path + ": truncated (smaller than the header)");
  }
  map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail("mmap of " + path + " failed: " + std::strerror(errno));
  }
  // A validation throw must not leak the mapping: the destructor does not
  // run when the constructor exits by exception.
  try {
    validate_and_fixup(path);
  } catch (...) {
    ::munmap(map_, size_);
    map_ = nullptr;
    throw;
  }
}

void MappedDataset::validate_and_fixup(const std::string& path) {
  const auto* base = static_cast<const std::byte*>(map_);
  const auto* header = reinterpret_cast<const FileHeader*>(base);
  if (std::memcmp(header->magic, kMagic, sizeof kMagic) != 0) {
    fail(path + ": bad magic (not a dataset snapshot)");
  }
  if (header->version != static_cast<std::uint32_t>(kVersion)) {
    fail(path + ": format version " + std::to_string(header->version) +
         ", loader supports " + std::to_string(kVersion));
  }
  if (header->file_bytes > size_) {
    fail(path + ": truncated (header records " +
         std::to_string(header->file_bytes) + " bytes, file has " +
         std::to_string(size_) + ")");
  }
  if (header->section_count != kSectionCount) {
    fail(path + ": unexpected section count " +
         std::to_string(header->section_count));
  }
  const std::size_t table_end =
      sizeof(FileHeader) + kSectionCount * sizeof(SectionEntry);
  if (table_end > size_) fail(path + ": truncated section table");
  const auto* table =
      reinterpret_cast<const SectionEntry*>(base + sizeof(FileHeader));

  // Pointer fixup: locate each section, check bounds / alignment /
  // element-size divisibility, and point the view's spans at the mapping.
  auto section = [&](SectionId id, std::size_t elem_size,
                     std::size_t elem_align) -> std::pair<const std::byte*, std::size_t> {
    for (std::uint32_t i = 0; i < kSectionCount; ++i) {
      if (table[i].id != static_cast<std::uint32_t>(id)) continue;
      if (table[i].offset + table[i].size > size_ ||
          table[i].offset + table[i].size < table[i].offset) {
        fail(path + ": section " + std::to_string(table[i].id) +
             " exceeds the file");
      }
      if (table[i].offset % elem_align != 0) {
        fail(path + ": section " + std::to_string(table[i].id) + " misaligned");
      }
      if (elem_size > 1 && table[i].size % elem_size != 0) {
        fail(path + ": section " + std::to_string(table[i].id) +
             " size not a multiple of its row size");
      }
      return {base + table[i].offset, static_cast<std::size_t>(table[i].size)};
    }
    fail(path + ": missing section " +
         std::to_string(static_cast<std::uint32_t>(id)));
  };

  const auto [meta_ptr, meta_size] = section(SectionId::Meta, 1, alignof(MetaFixed));
  if (meta_size < sizeof(MetaFixed)) fail(path + ": meta section too small");
  const auto* meta = reinterpret_cast<const MetaFixed*>(meta_ptr);
  if (sizeof(MetaFixed) + meta->name_length > meta_size) {
    fail(path + ": dataset name exceeds the meta section");
  }
  view_.name = std::string_view(
      reinterpret_cast<const char*>(meta_ptr + sizeof(MetaFixed)),
      meta->name_length);
  if (meta->style > static_cast<std::uint32_t>(DatasetStyle::Pb10)) {
    fail(path + ": unknown dataset style " + std::to_string(meta->style));
  }
  view_.style = static_cast<DatasetStyle>(meta->style);
  view_.window_start = meta->window_start;
  view_.window_end = meta->window_end;

  const auto pods = section(SectionId::TorrentPods, sizeof(TorrentRecordPod),
                            alignof(TorrentRecordPod));
  view_.torrents = {reinterpret_cast<const TorrentRecordPod*>(pods.first),
                    pods.second / sizeof(TorrentRecordPod)};
  const auto text = section(SectionId::Text, 1, 1);
  view_.text = {reinterpret_cast<const char*>(text.first), text.second};
  const auto refs = section(SectionId::FilenameRefs, sizeof(StrRef), alignof(StrRef));
  view_.filename_refs = {reinterpret_cast<const StrRef*>(refs.first),
                         refs.second / sizeof(StrRef)};
  const auto blob = section(SectionId::PeerBlob, 6, 1);
  view_.peer_blob = {reinterpret_cast<const char*>(blob.first), blob.second};
  const auto sightings = section(SectionId::Sightings, sizeof(SimTime),
                                 alignof(SimTime));
  view_.sightings = {reinterpret_cast<const SimTime*>(sightings.first),
                     sightings.second / sizeof(SimTime)};
  const auto users = section(SectionId::UserPods, sizeof(UserPagePod),
                             alignof(UserPagePod));
  view_.user_pages = {reinterpret_cast<const UserPagePod*>(users.first),
                      users.second / sizeof(UserPagePod)};
  const auto times = section(SectionId::UserTimes, sizeof(SimTime),
                             alignof(SimTime));
  view_.user_publish_times = {reinterpret_cast<const SimTime*>(times.first),
                              times.second / sizeof(SimTime)};

  // The per-record pass: after it, every accessor of the view is in bounds.
  try {
    validate(view_);
  } catch (const std::runtime_error& e) {
    fail(path + ": " + e.what());
  }
}

MappedDataset::~MappedDataset() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

MappedDataset load_or_generate(const std::string& path,
                               const std::function<Dataset()>& generate) {
  if (std::filesystem::exists(path)) {
    try {
      return MappedDataset(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "[btpub] warning: rejected cached dataset %s: %s; "
                   "regenerating\n",
                   path.c_str(), e.what());
    }
  }
  const auto parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (ec) {
    fail("cannot cache dataset to " + path + ": " + ec.message() +
         " (errno " + std::to_string(ec.value()) + ")");
  }
  save_mmap_snapshot(compact_dataset(generate()), path);
  return MappedDataset(path);
}

}  // namespace btpub
