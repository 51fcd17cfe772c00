/**
 * @file
 * JSON string escaping, shared by the hand-written JSON writers (the
 * dioscc report and bench/native_diff's result file).
 */
#pragma once

#include <cstdio>
#include <string>

namespace diospyros {

/**
 * Escapes `s` for use inside a JSON string literal: quotes, backslashes,
 * and every control character below U+0020 (as \n, \t, or \u00XX), so
 * multi-line text such as compiler stderr stays one valid string.
 */
inline std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace diospyros
