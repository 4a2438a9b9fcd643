#include "publisher/names.hpp"

#include <array>

namespace btpub {
namespace {

constexpr std::array kAdjectives = {
    "Dark",  "Blue",   "Silent", "Broken", "Golden", "Hidden", "Last",
    "Lost",  "Iron",   "Crimson", "Silver", "Final",  "Rising", "Fallen",
    "Wild",  "Frozen", "Burning", "Secret", "Double", "Eternal"};

constexpr std::array kNouns = {
    "Horizon", "Empire",  "Protocol", "Legacy",  "Kingdom", "Paradox",
    "Signal",  "Phoenix", "Echo",     "Fortress", "Harbor",  "Mirage",
    "Vendetta", "Odyssey", "Circuit",  "Panorama", "Outpost", "Tempest",
    "Labyrinth", "Monolith"};

constexpr std::array kGroups = {"CRoWN", "AXXO",  "FXG",   "NoGRP", "LTT",
                                "DMT",   "SAiNTS", "VoMiT", "DiAMOND", "KLAXXON"};

constexpr std::array kHotTitles = {
    "Avatar",          "Inception",       "Iron.Man.2",    "Toy.Story.3",
    "Shutter.Island",  "Kick-Ass",        "Robin.Hood",    "Sex.and.the.City.2",
    "Prince.of.Persia", "Clash.of.the.Titans", "Lost.Final.Season", "Shrek.Forever"};

constexpr std::array kSoftware = {"Photoshop.CS5", "Office.2010",   "Windows.7.Ultimate",
                                  "Nero.10",       "AutoCAD.2011",  "WinRAR.Pro",
                                  "AntiVirus.2010", "TuneUp.Utilities"};

constexpr std::array kArtists = {"The.Static.Waves", "Nova.Era",    "DJ.Kranich",
                                 "Lena.Morre",       "Polar.Youth", "Seven.Stones",
                                 "Los.Ruidos",       "Electric.Fen"};

constexpr std::array kUserWords = {"dvd",   "movie", "rip",   "share", "seed",
                                   "torr",  "media", "flick", "sound", "byte"};

constexpr std::array kBrandWords = {"divx",  "ultra", "mega",  "turbo", "prime",
                                    "zona",  "mundo", "flash", "vip",   "xtreme",
                                    "gig",   "torrentia", "peer", "linka", "rapid"};

constexpr std::array kTlds = {".com", ".net", ".org", ".info", ".to"};

template <typename Array>
const char* pick(const Array& arr, Rng& rng) {
  return arr[rng.index(arr.size())];
}

std::string two_word_name(Rng& rng, char sep) {
  std::string s = pick(kAdjectives, rng);
  s += sep;
  s += pick(kNouns, rng);
  return s;
}

}  // namespace

std::string make_release_title(ContentCategory category, Rng& rng) {
  switch (category) {
    case ContentCategory::Movies: {
      std::string t = two_word_name(rng, '.');
      t += ".20";
      t += std::to_string(rng.uniform_int(5, 10));
      t += rng.chance(0.5) ? ".DVDRip.XviD-" : ".BRRip.x264-";
      t += pick(kGroups, rng);
      return t;
    }
    case ContentCategory::TvShows: {
      std::string t = two_word_name(rng, '.');
      t += ".S";
      const auto s = rng.uniform_int(1, 8);
      if (s < 10) t += '0';
      t += std::to_string(s);
      t += "E";
      const auto e = rng.uniform_int(1, 24);
      if (e < 10) t += '0';
      t += std::to_string(e);
      t += ".HDTV.XviD-";
      t += pick(kGroups, rng);
      return t;
    }
    case ContentCategory::Porn: {
      std::string t = "XXX.";
      t += two_word_name(rng, '.');
      t += ".Vol." + std::to_string(rng.uniform_int(1, 30));
      return t;
    }
    case ContentCategory::Music: {
      std::string t = pick(kArtists, rng);
      t += ".-.";
      t += two_word_name(rng, '.');
      t += rng.chance(0.5) ? ".MP3.320kbps" : ".FLAC";
      return t;
    }
    case ContentCategory::Audiobooks: {
      std::string t = two_word_name(rng, '.');
      t += ".Unabridged.Audiobook.MP3";
      return t;
    }
    case ContentCategory::Games: {
      std::string t = two_word_name(rng, '.');
      t += rng.chance(0.5) ? ".PC.GAME-RELOADED" : ".XBOX360-COMPLEX";
      return t;
    }
    case ContentCategory::Software: {
      std::string t = pick(kSoftware, rng);
      t += ".Incl.Keygen-";
      t += pick(kGroups, rng);
      return t;
    }
    case ContentCategory::Ebooks: {
      std::string t = two_word_name(rng, '.');
      t += ".2010.eBook.PDF";
      return t;
    }
    case ContentCategory::Other:
      return two_word_name(rng, '.') + ".Pack";
  }
  return two_word_name(rng, '.');
}

std::string make_catchy_title(ContentCategory category, Rng& rng) {
  // Fake publishers name decoys after the hottest releases of the moment.
  if (category == ContentCategory::Software) {
    std::string t = pick(kSoftware, rng);
    t += ".FULL.Cracked";
    return t;
  }
  std::string t = pick(kHotTitles, rng);
  if (category == ContentCategory::TvShows) {
    t += ".S01E0" + std::to_string(rng.uniform_int(1, 9));
  }
  t += rng.chance(0.5) ? ".2010.DVDRip.XviD" : ".R5.LiNE";
  return t;
}

std::string make_regular_username(Rng& rng) {
  std::string u = pick(kUserWords, rng);
  u += pick(kNouns, rng);
  for (auto& c : u) c = static_cast<char>(std::tolower(c));
  u += std::to_string(rng.uniform_int(0, 9999));
  return u;
}

std::string make_top_username(Rng& rng) {
  std::string u = pick(kBrandWords, rng);
  u += pick(kUserWords, rng);
  if (rng.chance(0.4)) u += std::to_string(rng.uniform_int(1, 99));
  return u;
}

std::string make_hacked_username(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789";
  std::string u;
  const auto n = static_cast<std::size_t>(rng.uniform_int(6, 10));
  u.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    u.push_back(kAlphabet[rng.index(sizeof(kAlphabet) - 1)]);
  }
  return u;
}

std::string make_brand(Rng& rng) {
  std::string b = pick(kBrandWords, rng);
  b += pick(kUserWords, rng);
  return b;
}

std::string make_domain(const std::string& brand_hint, Rng& rng) {
  std::string d = brand_hint.empty() ? make_brand(rng) : brand_hint;
  for (auto& c : d) c = static_cast<char>(std::tolower(c));
  d += pick(kTlds, rng);
  return d;
}

}  // namespace btpub
