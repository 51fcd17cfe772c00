#include "support/sexpr.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/error.h"

namespace diospyros {

namespace {

/** std::isspace in the C locale. */
bool
is_space(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Ends a bare atom. */
bool
ends_atom(char c)
{
    return is_space(c) || c == '(' || c == ')' || c == ';';
}

/** What a byte asks of a token that holds it; bits of kCharClass. */
enum : unsigned char {
    kQuote = 1,   ///< the token must be quoted
    kEscape = 2,  ///< and the byte escaped
};

constexpr auto kCharClass = [] {
    std::array<unsigned char, 256> t{};
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r', '(', ')', ';'}) {
        t[static_cast<unsigned char>(c)] = kQuote;
    }
    for (const char c : {'"', '\\', '\n', '\t', '\r'}) {
        t[static_cast<unsigned char>(c)] = kQuote | kEscape;
    }
    return t;
}();

unsigned char
char_class(char c)
{
    return kCharClass[static_cast<unsigned char>(c)];
}

/** The escape that stands for `c` (a kEscape byte) inside a quoted atom. */
const char*
escape_of(char c)
{
    switch (c) {
      case '"':
        return "\\\"";
      case '\\':
        return "\\\\";
      case '\n':
        return "\\n";
      case '\t':
        return "\\t";
      default:
        return "\\r";
    }
}

/** True when a token must be written as a quoted string. */
bool
needs_quoting(std::string_view token)
{
    if (token.empty()) {
        return true;
    }
    for (const char c : token) {
        if (char_class(c) != 0) {
            return true;
        }
    }
    return false;
}

/**
 * Whether `token` spells a signed decimal integer; if so, `in_range` says
 * whether it lies in int64, and then `v` holds it.
 */
bool
token_integer(std::string_view token, std::int64_t& v, bool& in_range)
{
    const std::size_t sign =
        !token.empty() && (token[0] == '-' || token[0] == '+') ? 1 : 0;
    if (sign == token.size()) {
        return false;
    }
    for (std::size_t i = sign; i < token.size(); ++i) {
        if (token[i] < '0' || token[i] > '9') {
            return false;
        }
    }
    const char* first = token.data() + (token[0] == '+' ? 1 : 0);
    in_range = std::from_chars(first, token.data() + token.size(), v).ec ==
               std::errc{};
    return true;
}

/** Sexpr::is_number() and as_number() of `token`, in one call. */
bool
token_number(std::string_view token, double& v)
{
    if (token == "0x0p+0") {
        v = 0.0;
        return true;
    }
    // strtod needs a terminated copy; it stops at an embedded NUL, which
    // then reads as the end, as it does for a std::string's c_str().
    char buf[64];
    std::string big;
    const char* s = buf;
    if (token.size() < sizeof buf) {
        std::memcpy(buf, token.data(), token.size());
        buf[token.size()] = '\0';
    } else {
        big.assign(token);
        s = big.c_str();
    }
    char* end = nullptr;
    v = std::strtod(s, &end);
    return end != s && *end == '\0';
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void
SexprWriter::separate()
{
    if (!first_) {
        out_ += ' ';
    }
    first_ = false;
}

SexprWriter&
SexprWriter::open()
{
    separate();
    out_ += '(';
    first_ = true;
    return *this;
}

SexprWriter&
SexprWriter::open(std::string_view head)
{
    return open().atom(head);
}

SexprWriter&
SexprWriter::close()
{
    out_ += ')';
    first_ = false;
    return *this;
}

SexprWriter&
SexprWriter::atom(std::string_view token)
{
    separate();
    if (!needs_quoting(token)) {
        out_ += token;
        return *this;
    }
    out_ += '"';
    std::size_t start = 0;
    for (std::size_t i = 0; i < token.size(); ++i) {
        if ((char_class(token[i]) & kEscape) != 0) {
            out_.append(token, start, i - start);
            out_ += escape_of(token[i]);
            start = i + 1;
        }
    }
    out_.append(token, start);
    out_ += '"';
    return *this;
}

SexprWriter&
SexprWriter::i64(std::int64_t v)
{
    separate();
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;
    out_.append(buf, end);
    return *this;
}

SexprWriter&
SexprWriter::f64(double v)
{
    if (v == 0.0 && !std::signbit(v)) {
        return raw("0x0p+0");
    }
    char buf[48];
    const int n = std::snprintf(buf, sizeof buf, "%a", v);
    return raw(std::string_view(buf, static_cast<std::size_t>(n)));
}

SexprWriter&
SexprWriter::raw(std::string_view element)
{
    separate();
    out_ += element;
    return *this;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

std::string
SexprCursor::Item::token() const
{
    DIOS_ASSERT(!list, "token() of a list element");
    if (!quoted) {
        return std::string(raw);
    }
    const std::string_view body = raw.substr(1, raw.size() - 2);
    std::string out;
    out.reserve(body.size());
    std::size_t start = 0;
    for (std::size_t k = body.find('\\'); k != std::string_view::npos;
         k = body.find('\\', start)) {
        out.append(body, start, k - start);
        const char esc = body[k + 1];
        out += esc == 'n' ? '\n' : esc == 't' ? '\t' : esc == 'r' ? '\r' : esc;
        start = k + 2;
    }
    out.append(body, start);
    return out;
}

bool
SexprCursor::Item::is(std::string_view token) const
{
    if (list) {
        return false;
    }
    if (!quoted) {
        return raw == token;
    }
    const std::string_view body = raw.substr(1, raw.size() - 2);
    return body.find('\\') == std::string_view::npos ? body == token
                                                     : this->token() == token;
}

bool
SexprCursor::Item::integer(std::int64_t& v) const
{
    bool in_range = false;
    return !list &&
           (quoted ? token_integer(token(), v, in_range)
                   : token_integer(raw, v, in_range)) &&
           in_range;
}

bool
SexprCursor::Item::number(double& v) const
{
    return !list && (quoted ? token_number(token(), v)
                            : token_number(raw, v));
}

SexprCursor::SexprCursor(std::string_view text, std::string_view where)
    : text_(text), where_(where)
{
}

void
SexprCursor::fail(const char* what) const
{
    detail::raise_user(std::string(where_) + what);
}

void
SexprCursor::skip_space_slow()
{
    const char* const data = text_.data();
    const std::size_t n = text_.size();
    std::size_t i = pos_;
    while (i < n) {
        if (is_space(data[i])) {
            ++i;
        } else if (data[i] == ';') {
            // Line comment.
            const void* eol = std::memchr(data + i, '\n', n - i);
            i = eol ? static_cast<std::size_t>(
                          static_cast<const char*>(eol) - data)
                    : n;
        } else {
            break;
        }
    }
    pos_ = i;
}

void
SexprCursor::scan_atom()
{
    const char* const data = text_.data();
    const std::size_t n = text_.size();
    std::size_t i = pos_;
    if (data[i] != '"') {
        while (i < n && !ends_atom(data[i])) {
            ++i;
        }
        pos_ = i;
        return;
    }
    // A quote closes the string unless an odd run of backslashes (an
    // escape) stands right before it.
    const std::size_t body = i + 1;
    const auto escapes_before = [&](std::size_t at) {
        std::size_t run = 0;
        while (at - run > body && data[at - run - 1] == '\\') {
            ++run;
        }
        return run % 2 == 1;
    };
    for (i = body;;) {
        const void* quote = std::memchr(data + i, '"', n - i);
        if (quote == nullptr) {
            pos_ = n;
            fail(escapes_before(n)
                     ? "dangling escape at end of s-expression string"
                     : "unterminated string in s-expression");
        }
        const std::size_t at = static_cast<std::size_t>(
            static_cast<const char*>(quote) - data);
        i = at + 1;
        if (!escapes_before(at)) {
            pos_ = i;
            return;
        }
    }
}

bool
SexprCursor::at_list()
{
    skip_space();
    return pos_ < text_.size() && text_[pos_] == '(';
}

void
SexprCursor::enter()
{
    DIOS_ASSERT(at_list(), "SexprCursor::enter() not at a list");
    ++pos_;
    ++depth_;
}

bool
SexprCursor::more()
{
    skip_space();
    if (depth_ == 0) {
        return pos_ < text_.size();
    }
    if (pos_ >= text_.size()) {
        fail("unterminated s-expression list");
    }
    if (text_[pos_] != ')') {
        return true;
    }
    ++pos_;
    --depth_;
    return false;
}

SexprCursor::Item
SexprCursor::next()
{
    skip_space();
    if (pos_ >= text_.size()) {
        fail("unexpected end of s-expression input");
    }
    const std::size_t start = pos_;
    const char first = text_[pos_];
    if (first == ')') {
        fail("unexpected ')' in s-expression");
    }
    if (first != '(') {
        scan_atom();
        return {text_.substr(start, pos_ - start), false, first == '"'};
    }
    for (std::size_t depth = 0;;) {
        const char c = text_[pos_];
        if (c == '(') {
            ++depth;
            ++pos_;
        } else if (c == ')') {
            ++pos_;
            if (--depth == 0) {
                return {text_.substr(start, pos_ - start), true, false};
            }
        } else {
            scan_atom();
        }
        skip_space();
        if (pos_ >= text_.size()) {
            fail("unterminated s-expression list");
        }
    }
}

std::optional<SexprCursor::Item>
SexprCursor::field()
{
    if (!at_list()) {
        next();
        return std::nullopt;
    }
    enter();
    if (!more()) {
        return std::nullopt;
    }
    if (at_list()) {
        skip_rest();
        return std::nullopt;
    }
    return next();
}

std::size_t
SexprCursor::read_rest(std::span<Item> out)
{
    std::size_t n = 0;
    for (; more(); ++n) {
        const Item item = next();
        if (n < out.size()) {
            out[n] = item;
        }
    }
    return n;
}

void
SexprCursor::skip_rest()
{
    read_rest({});
}

void
SexprCursor::finish()
{
    skip_space();
    if (pos_ < text_.size()) {
        fail("trailing characters after s-expression");
    }
}

std::int64_t
as_i64(const SexprCursor::Item& v, std::string_view where)
{
    std::int64_t out = 0;
    DIOS_CHECK(v.integer(out), std::string(where) +
                                   ": expected an integer, got '" +
                                   std::string(v.raw) + "'");
    return out;
}

double
as_f64(const SexprCursor::Item& v, std::string_view where)
{
    double out = 0.0;
    DIOS_CHECK(v.number(out), std::string(where) +
                                  ": expected a number, got '" +
                                  std::string(v.raw) + "'");
    return out;
}

// ---------------------------------------------------------------------------
// Tree
// ---------------------------------------------------------------------------

Sexpr
Sexpr::atom(std::string token)
{
    DIOS_CHECK(!token.empty(), "s-expression atom must be non-empty");
    Sexpr s;
    s.is_atom_ = true;
    s.token_ = std::move(token);
    return s;
}

Sexpr
Sexpr::string_atom(std::string text)
{
    Sexpr s;
    s.is_atom_ = true;
    s.token_ = std::move(text);
    return s;
}

Sexpr
Sexpr::list(std::vector<Sexpr> children)
{
    Sexpr s;
    s.is_atom_ = false;
    s.children_ = std::move(children);
    return s;
}

const std::string&
Sexpr::token() const
{
    DIOS_ASSERT(is_atom_, "token() on a list s-expression");
    return token_;
}

const std::vector<Sexpr>&
Sexpr::children() const
{
    DIOS_ASSERT(!is_atom_, "children() on an atom s-expression");
    return children_;
}

std::size_t
Sexpr::size() const
{
    return is_atom_ ? 0 : children_.size();
}

const Sexpr&
Sexpr::operator[](std::size_t i) const
{
    DIOS_ASSERT(!is_atom_ && i < children_.size(),
                "s-expression child index out of range");
    return children_[i];
}

bool
Sexpr::is_integer() const
{
    std::int64_t v = 0;
    bool in_range = false;
    return is_atom_ && token_integer(token_, v, in_range);
}

std::int64_t
Sexpr::as_integer() const
{
    std::int64_t v = 0;
    bool in_range = false;
    DIOS_ASSERT(is_atom_ && token_integer(token_, v, in_range),
                "as_integer() on non-integer atom");
    DIOS_CHECK(in_range, "integer literal " + token_ +
                             " is outside the signed 64-bit range");
    return v;
}

bool
Sexpr::is_number() const
{
    double v = 0.0;
    return is_atom_ && token_number(token_, v);
}

double
Sexpr::as_number() const
{
    double v = 0.0;
    DIOS_ASSERT(is_atom_ && token_number(token_, v),
                "as_number() on non-numeric atom");
    return v;
}

void
Sexpr::write(SexprWriter& w) const
{
    if (is_atom_) {
        w.atom(token_);
        return;
    }
    w.open();
    for (const Sexpr& child : children_) {
        child.write(w);
    }
    w.close();
}

std::string
Sexpr::to_string() const
{
    SexprWriter w;
    write(w);
    return w.take();
}

bool
Sexpr::operator==(const Sexpr& other) const
{
    if (is_atom_ != other.is_atom_) {
        return false;
    }
    if (is_atom_) {
        return token_ == other.token_;
    }
    return children_ == other.children_;
}

namespace {

Sexpr
parse_one(SexprCursor& c)
{
    if (!c.at_list()) {
        const SexprCursor::Item a = c.next();
        return a.quoted ? Sexpr::string_atom(a.token())
                        : Sexpr::atom(a.token());
    }
    c.enter();
    std::vector<Sexpr> children;
    while (c.more()) {
        children.push_back(parse_one(c));
    }
    return Sexpr::list(std::move(children));
}

}  // namespace

Sexpr
parse_sexpr(const std::string& text)
{
    SexprCursor c(text);
    Sexpr result = parse_one(c);
    c.finish();
    return result;
}

std::vector<Sexpr>
parse_sexpr_list(const std::string& text)
{
    SexprCursor c(text);
    std::vector<Sexpr> out;
    while (c.more()) {
        out.push_back(parse_one(c));
    }
    return out;
}

bool
is_field(const Sexpr& s, std::string_view name)
{
    return s.is_list() && s.size() >= 1 && s[0].is_atom() &&
           s[0].token() == name;
}

}  // namespace diospyros
