/**
 * @file
 * The one JSON writer: dioscc's --json reports (their rows come from
 * compiler/report_fields.h), ServiceMetrics::to_json (diosd's status
 * frame), and the result files of bench/soak, bench/native_diff and
 * bench/fig6_timeout.
 *
 * Output is compact: `{"name":value,...}` with no spaces. diosd's status
 * readers search for exactly that `"name":` spelling.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace diospyros {

/**
 * Escapes `s` for use inside a JSON string literal: quotes, backslashes,
 * and every control character below U+0020 (as \n, \t, or \u00XX), so
 * multi-line text such as compiler stderr stays one valid string.
 */
inline std::string
json_escape(std::string_view s)
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

/**
 * Builds one JSON text. Commas go in by themselves: a value, key or
 * opening bracket after a finished value gets one.
 *
 *   JsonWriter w;
 *   w.open('{').field("ok", true).key("xs").open('[').value(1).close(']');
 *   w.close('}').str();  // {"ok":true,"xs":[1]}
 */
class JsonWriter {
  public:
    /** Opens an object ('{') or an array ('['). */
    JsonWriter& open(char bracket) { return raw({&bracket, 1}, false); }

    /** Closes the innermost object ('}') or array (']'). */
    JsonWriter&
    close(char bracket)
    {
        out_ += bracket;
        comma_ = true;
        return *this;
    }

    /** `"name":` inside an object; a value must follow. */
    JsonWriter&
    key(std::string_view name)
    {
        return raw('"' + json_escape(name) + "\":", false);
    }

    JsonWriter&
    value(std::string_view s)
    {
        return raw('"' + json_escape(s) + '"');
    }

    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
    JsonWriter& null() { return raw("null"); }

    template <class T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    JsonWriter&
    value(T v)
    {
        return raw(std::to_string(v));
    }

    /** A number printed with `format`; NaN and infinities become null. */
    JsonWriter&
    value(double v, const char* format = "%.6f")
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, format, v);
        return std::isfinite(v) ? raw(buf) : null();
    }

    /** `"name":v`. */
    template <class T>
    JsonWriter&
    field(std::string_view name, const T& v)
    {
        return key(name).value(v);
    }

    const std::string& str() const { return out_; }

  private:
    /** Appends `text` after a comma if one is due; `done`: a value ended. */
    JsonWriter&
    raw(std::string_view text, bool done = true)
    {
        if (comma_) {
            out_ += ',';
        }
        out_ += text;
        comma_ = done;
        return *this;
    }

    std::string out_;
    /** A value just finished, so the next item needs a comma. */
    bool comma_ = false;
};

}  // namespace diospyros
