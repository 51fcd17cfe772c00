#include "support/sexpr.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/error.h"

namespace diospyros {

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
    if (!is_atom_ || token_.empty()) {
        return false;
    }
    std::size_t i = (token_[0] == '-' || token_[0] == '+') ? 1 : 0;
    if (i == token_.size()) {
        return false;
    }
    for (; i < token_.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(token_[i]))) {
            return false;
        }
    }
    return true;
}

std::int64_t
Sexpr::as_integer() const
{
    DIOS_ASSERT(is_integer(), "as_integer() on non-integer atom");
    return std::strtoll(token_.c_str(), nullptr, 10);
}

bool
Sexpr::is_number() const
{
    if (!is_atom_ || token_.empty()) {
        return false;
    }
    char* end = nullptr;
    std::strtod(token_.c_str(), &end);
    return end != nullptr && *end == '\0' && end != token_.c_str();
}

double
Sexpr::as_number() const
{
    DIOS_ASSERT(is_number(), "as_number() on non-numeric atom");
    return std::strtod(token_.c_str(), nullptr);
}

std::string
Sexpr::to_string() const
{
    std::string out;
    write(out);
    return out;
}

namespace {

/** True when a token must be serialized as a quoted string. */
bool
needs_quoting(const std::string& token)
{
    if (token.empty()) {
        return true;
    }
    for (const char c : token) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
            c == ')' || c == ';' || c == '"' || c == '\\') {
            return true;
        }
    }
    return false;
}

void
write_quoted(std::string& out, const std::string& token)
{
    out += '"';
    for (const char c : token) {
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
          case '\r':
            out += "\\r";
            break;
          default:
            out += c;
        }
    }
    out += '"';
}

}  // namespace

void
Sexpr::write(std::string& out) const
{
    if (is_atom_) {
        if (needs_quoting(token_)) {
            write_quoted(out, token_);
        } else {
            out += token_;
        }
        return;
    }
    out += '(';
    for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) {
            out += ' ';
        }
        children_[i].write(out);
    }
    out += ')';
}

std::string
Sexpr::to_pretty_string(int max_width) const
{
    std::string out;
    write_pretty(out, 0, max_width);
    return out;
}

void
Sexpr::write_pretty(std::string& out, int indent, int max_width) const
{
    const std::string flat = to_string();
    if (is_atom_ || indent + static_cast<int>(flat.size()) <= max_width) {
        out += flat;
        return;
    }
    out += '(';
    for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) + 2, ' ');
        }
        children_[i].write_pretty(out, indent + 2, max_width);
    }
    out += ')';
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

/** Recursive-descent s-expression parser over a raw character buffer. */
class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Sexpr
    parse_one()
    {
        skip_space();
        DIOS_CHECK(!at_end(), "unexpected end of s-expression input");
        if (peek() == '(') {
            return parse_list();
        }
        DIOS_CHECK(peek() != ')', "unexpected ')' in s-expression");
        if (peek() == '"') {
            return parse_string();
        }
        return parse_atom();
    }

    void
    skip_space()
    {
        while (!at_end()) {
            const char c = peek();
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == ';') {
                // Line comment.
                while (!at_end() && peek() != '\n') {
                    ++pos_;
                }
            } else {
                break;
            }
        }
    }

    bool at_end() const { return pos_ >= text_.size(); }

  private:
    char peek() const { return text_[pos_]; }

    Sexpr
    parse_list()
    {
        ++pos_;  // consume '('
        std::vector<Sexpr> children;
        while (true) {
            skip_space();
            DIOS_CHECK(!at_end(), "unterminated s-expression list");
            if (peek() == ')') {
                ++pos_;
                return Sexpr::list(std::move(children));
            }
            children.push_back(parse_one());
        }
    }

    Sexpr
    parse_string()
    {
        ++pos_;  // consume opening '"'
        std::string text;
        while (true) {
            DIOS_CHECK(!at_end(), "unterminated string in s-expression");
            const char c = peek();
            ++pos_;
            if (c == '"') {
                return Sexpr::string_atom(std::move(text));
            }
            if (c != '\\') {
                text += c;
                continue;
            }
            DIOS_CHECK(!at_end(),
                       "dangling escape at end of s-expression string");
            const char esc = peek();
            ++pos_;
            switch (esc) {
              case 'n':
                text += '\n';
                break;
              case 't':
                text += '\t';
                break;
              case 'r':
                text += '\r';
                break;
              default:
                // Covers \" and \\; any other escaped char is literal.
                text += esc;
            }
        }
    }

    Sexpr
    parse_atom()
    {
        const std::size_t start = pos_;
        while (!at_end()) {
            const char c = peek();
            if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
                c == ')' || c == ';') {
                break;
            }
            ++pos_;
        }
        return Sexpr::atom(text_.substr(start, pos_ - start));
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

Sexpr
parse_sexpr(const std::string& text)
{
    Parser p(text);
    Sexpr result = p.parse_one();
    p.skip_space();
    DIOS_CHECK(p.at_end(), "trailing characters after s-expression");
    return result;
}

std::vector<Sexpr>
parse_sexpr_list(const std::string& text)
{
    Parser p(text);
    std::vector<Sexpr> out;
    p.skip_space();
    while (!p.at_end()) {
        out.push_back(p.parse_one());
        p.skip_space();
    }
    return out;
}

Sexpr
field(const std::string& name, std::vector<Sexpr> values)
{
    values.insert(values.begin(), Sexpr::atom(name));
    return Sexpr::list(std::move(values));
}

bool
is_field(const Sexpr& s, std::string_view name)
{
    return s.is_list() && s.size() >= 1 && s[0].is_atom() &&
           s[0].token() == name;
}

Sexpr
f64_atom(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return Sexpr::atom(buf);
}

Sexpr
i64_atom(std::int64_t v)
{
    return Sexpr::atom(std::to_string(v));
}

std::int64_t
as_i64(const Sexpr& s, std::string_view where)
{
    DIOS_CHECK(s.is_integer(), std::string(where) +
                                   ": expected an integer, got '" +
                                   s.to_string() + "'");
    return s.as_integer();
}

double
as_f64(const Sexpr& s, std::string_view where)
{
    DIOS_CHECK(s.is_number(), std::string(where) +
                                  ": expected a number, got '" +
                                  s.to_string() + "'");
    return s.as_number();
}

const Sexpr&
field_value(const Sexpr& f, std::string_view where)
{
    DIOS_CHECK(f.size() == 2 && f[1].is_atom(),
               std::string(where) + ": field '" + f[0].token() +
                   "' expects one atom");
    return f[1];
}

}  // namespace diospyros
