// Small string utilities (trim/split/case) used by the input parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace xg {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on arbitrary whitespace; drops empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// ASCII upper/lower-casing (input keys are case-insensitive, CGYRO-style).
std::string to_upper(std::string_view s);
std::string to_lower(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Strict command-line number parsing: the whole of `value` must be a
/// number in range (no blanks, no trailing junk — std::stoi would accept
/// "4x"). Throws xg::InputError "FLAG: 'VALUE' is not an integer" / "is not
/// a number", the messages the CLI references document.
int parse_flag_int(const std::string& flag, const std::string& value);
double parse_flag_double(const std::string& flag, const std::string& value);

/// Parse helpers that throw xg::InputError with context on failure.
long parse_long(std::string_view s, std::string_view context);
double parse_double(std::string_view s, std::string_view context);
bool parse_bool(std::string_view s, std::string_view context);

}  // namespace xg
