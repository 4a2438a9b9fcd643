// strings.hpp — small string utilities shared across modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace btpub {

/// Splits on a single character; empty fields are preserved. The fields
/// are views into `s` — no per-field copies — and are only valid while
/// the underlying buffer is.
std::vector<std::string_view> split_views(std::string_view s, char sep);

/// Appends the fields of `s` split on `sep` to `out` (which is cleared
/// first). Reusing one vector across calls makes repeated parsing
/// allocation-free once its capacity has grown.
void split_views(std::string_view s, char sep, std::vector<std::string_view>& out);

std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Percent-encodes arbitrary bytes for use in URLs/query strings.
std::string url_escape(std::string_view bytes);
/// Inverse of url_escape; throws std::invalid_argument on malformed input.
std::string url_unescape(std::string_view text);

/// Non-throwing url_unescape into a caller-provided buffer (e.g. a fixed
/// 20-byte info_hash). Returns the decoded length, or nullopt when the
/// input is malformed or decodes to more than `capacity` bytes.
std::optional<std::size_t> url_unescape_into(std::string_view text, char* out,
                                             std::size_t capacity);

/// Parses a whole decimal unsigned integer no greater than `max`. Returns
/// nullopt for an empty string, a sign, whitespace, trailing characters or
/// a value out of range, so a typo can never turn into 0 or wrap around.
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max = UINT64_MAX);

/// Parses a whole finite, non-negative decimal number ("2", "0.5", "1e3").
/// Returns nullopt for an empty string, a sign, whitespace, trailing
/// characters, "inf"/"nan" or a value out of range, so `--duration abc`
/// is an error rather than 0.
std::optional<double> parse_double(std::string_view text);

/// One RFC 4180 CSV field: returned as is unless it holds a comma, a
/// double quote, LF or CR, in which case it is quoted and its double
/// quotes doubled. Snapshot text is untrusted bytes, so a bare CR must
/// not split a row either.
std::string csv_escape(std::string_view field);

/// printf-lite double formatting with fixed decimals.
std::string format_double(double v, int decimals);

/// Formats 1234567 as "1.23M", 54321 as "54.3K" etc. (used in Table 5
/// where the paper prints "33K", "2.8M").
std::string humanize(double v);

/// Percent with one decimal: 0.3012 -> "30.1%".
std::string percent(double fraction, int decimals = 1);

}  // namespace btpub
