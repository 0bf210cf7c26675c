/**
 * @file
 * Appending JSON writers: the one string escaper and the number and
 * key formatters every JSON emitter in the tree shares.
 *
 * Each function appends to a caller-owned string and allocates only
 * when that string grows, so an emitter that reserves its output
 * once renders a whole body without a temporary per field.
 */

#ifndef LAG_UTIL_JSON_HH
#define LAG_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace lag
{

/**
 * Append @p text as a JSON string literal, quotes included. `"` and
 * `\` and the control bytes \n, \r, \t get their short escapes, every
 * other byte below 0x20 a `\u00xx` escape; all other bytes (UTF-8
 * sequences and 0x7f included) pass through unchanged.
 */
void appendJsonString(std::string &out, std::string_view text);

/** Append the shortest round-trip decimal form of @p v; lag_asserts
 * that @p v is finite (NaN/Inf are not JSON). */
void appendJsonNumber(std::string &out, double v);

/** Append @p v in decimal. */
void appendJsonNumber(std::string &out, std::uint64_t v);

/** Append @p v in decimal. */
void appendJsonNumber(std::string &out, std::int64_t v);

/** Append @p v as 16 lower-case hex digits, leading zeros kept. */
void appendHex16(std::string &out, std::uint64_t v);

} // namespace lag

#endif // LAG_UTIL_JSON_HH
