/**
 * @file
 * S-expression reader and writer.
 *
 * The vector DSL (paper Figure 3), rewrite-rule patterns, and test fixtures
 * are all written in s-expression syntax, e.g.
 * `(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))`.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace diospyros {

/** A parsed s-expression: either an atom (token) or a list of children. */
class Sexpr {
  public:
    /** Makes an atom node holding the given token text. */
    static Sexpr atom(std::string token);

    /**
     * Makes an atom holding arbitrary text (may be empty or contain
     * whitespace, parens, quotes...). Serialized as a double-quoted
     * string with escapes; parses back to an atom with identical
     * token(). Used by the on-disk compile cache to embed generated C
     * source and error messages.
     */
    static Sexpr string_atom(std::string text);

    /** Makes a list node with the given children. */
    static Sexpr list(std::vector<Sexpr> children);

    bool is_atom() const { return is_atom_; }
    bool is_list() const { return !is_atom_; }

    /** Atom token text; requires is_atom(). */
    const std::string& token() const;

    /** List children; requires is_list(). */
    const std::vector<Sexpr>& children() const;

    /** Number of children (0 for atoms). */
    std::size_t size() const;

    /** i-th child; requires is_list() and i < size(). */
    const Sexpr& operator[](std::size_t i) const;

    /** True if this atom parses as a signed integer. */
    bool is_integer() const;

    /** Parses this atom as an integer; requires is_integer(). */
    std::int64_t as_integer() const;

    /** True if this atom parses as a (possibly non-integer) number. */
    bool is_number() const;

    /** Parses this atom as a double; requires is_number(). */
    double as_number() const;

    /** Serializes back to textual s-expression form. */
    std::string to_string() const;

    /**
     * Serializes with line wrapping at roughly the given column, indenting
     * nested lists — used when emitting large specs to disk.
     */
    std::string to_pretty_string(int max_width = 79) const;

    bool operator==(const Sexpr& other) const;

  private:
    Sexpr() = default;

    void write(std::string& out) const;
    void write_pretty(std::string& out, int indent, int max_width) const;

    bool is_atom_ = false;
    std::string token_;
    std::vector<Sexpr> children_;
};

/**
 * Parses a single s-expression from the input text. Trailing whitespace is
 * permitted; trailing non-whitespace raises UserError.
 */
Sexpr parse_sexpr(const std::string& text);

/** Parses a sequence of s-expressions (e.g. a rule file). */
std::vector<Sexpr> parse_sexpr_list(const std::string& text);

// Field helpers for `(name value...)` records (the daemon wire format, the
// cache envelope). Readers raise UserError prefixed with `where`.

/** A `(name values...)` field node. */
Sexpr field(const std::string& name, std::vector<Sexpr> values);

/** True when `s` is a list whose head atom equals `name`. */
bool is_field(const Sexpr& s, std::string_view name);

/** Exact round trip for doubles: a hexfloat atom ("0x1.8p+1"). */
Sexpr f64_atom(double v);

/** A decimal integer atom. */
Sexpr i64_atom(std::int64_t v);

/** `s` as an integer atom. */
std::int64_t as_i64(const Sexpr& s, std::string_view where);

/** `s` as a number atom (integer, decimal or hexfloat). */
double as_f64(const Sexpr& s, std::string_view where);

/** The single value of field `f`, which must be an atom: `(name atom)`. */
const Sexpr& field_value(const Sexpr& f, std::string_view where);

/**
 * The reverse of a name function: the enumerator among the first `count`
 * that `name_of` spells `name`. Raises UserError "<what> '<name>'" when
 * none does.
 */
template <class Enum>
Enum
enum_from_name(std::string_view name, int count, const char* (*name_of)(Enum),
               std::string_view what)
{
    for (int i = 0; i < count; ++i) {
        if (name == name_of(static_cast<Enum>(i))) {
            return static_cast<Enum>(i);
        }
    }
    detail::raise_user(std::string(what) + " '" + std::string(name) + "'");
}

}  // namespace diospyros
