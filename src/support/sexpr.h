/**
 * @file
 * S-expression text: a tree (Sexpr), a streaming writer (SexprWriter)
 * and a one-pass reader (SexprCursor).
 *
 * The vector DSL (paper Figure 3), rewrite-rule patterns, strategies and
 * test fixtures are written in s-expression syntax, e.g.
 * `(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))`, and
 * parsed into Sexpr trees. The cache entry, its disk envelope and the
 * daemon payloads (service/serialize.h, daemon/protocol.h) are the same
 * dialect but never become trees: their writers append tokens to one
 * string and their readers walk the text once, taking atoms as views.
 * There is one tokenizer (the cursor; parse_sexpr builds its tree from
 * it) and one set of spacing and quoting rules (the writer;
 * Sexpr::to_string goes through it).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/error.h"

namespace diospyros {

class SexprWriter;

/** A parsed s-expression: either an atom (token) or a list of children. */
class Sexpr {
  public:
    /** Makes an atom node holding the given token text. */
    static Sexpr atom(std::string token);

    /**
     * Makes an atom holding arbitrary text (may be empty or contain
     * whitespace, parens, quotes...). Serialized as a double-quoted
     * string with escapes; parses back to an atom with identical
     * token().
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

    /** True if this atom spells a signed decimal integer. */
    bool is_integer() const;

    /**
     * Parses this atom as an integer; requires is_integer(). Raises
     * UserError, naming the literal, when it lies outside int64.
     */
    std::int64_t as_integer() const;

    /** True if this atom parses as a (possibly non-integer) number. */
    bool is_number() const;

    /** Parses this atom as a double; requires is_number(). */
    double as_number() const;

    /** Serializes back to textual s-expression form. */
    std::string to_string() const;

    bool operator==(const Sexpr& other) const;

  private:
    Sexpr() = default;

    void write(SexprWriter& w) const;

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

/** True when `s` is a list whose head atom equals `name`. */
bool is_field(const Sexpr& s, std::string_view name);

/**
 * Appends s-expression text to one string, token by token, with exactly
 * the spacing and quoting of Sexpr::to_string(): one space between the
 * elements of a list and none inside its parentheses; an atom is quoted
 * (with \" \\ \n \t \r escapes) when it is empty or holds whitespace,
 * parentheses, ';', '"' or '\'.
 */
class SexprWriter {
  public:
    /** Opens a list. */
    SexprWriter& open();
    /** Opens a list and writes its head atom. */
    SexprWriter& open(std::string_view head);
    SexprWriter& close();

    /** An atom whose token() reads back as `token`. */
    SexprWriter& atom(std::string_view token);
    /** A decimal integer atom. */
    SexprWriter& i64(std::int64_t v);
    /** Exact round trip for doubles: a hexfloat atom ("0x1.8p+1"). */
    SexprWriter& f64(double v);
    /** An element already written in this form, copied as it is. */
    SexprWriter& raw(std::string_view element);

    /** `(name value)`: an integer, a double or an atom's text. */
    template <class T>
    SexprWriter&
    field(std::string_view name, const T& value)
    {
        open(name);
        if constexpr (std::is_integral_v<T>) {
            i64(static_cast<std::int64_t>(value));
        } else if constexpr (std::is_floating_point_v<T>) {
            f64(value);
        } else {
            atom(value);
        }
        return close();
    }

    const std::string& str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    /** The space before an element that is not first in its list. */
    void separate();

    std::string out_;
    bool first_ = true;
};

/**
 * Walks the text of s-expressions once, without building a tree. Atoms
 * come back as views of the text; a list is either entered (its elements
 * are then read one by one) or taken whole as one element, unread.
 * Syntax errors raise UserError with parse_sexpr's messages, prefixed
 * with the `where` given at construction; they surface when the cursor
 * reaches them, not up front.
 */
class SexprCursor {
  public:
    /** One element: an atom, or a whole list taken unread. */
    struct Item {
        /** Its text as written: quotes and escapes included. */
        std::string_view raw;
        bool list = false;
        bool quoted = false;

        bool is_atom() const { return !list; }
        /** The atom's text, unescaped; requires is_atom(). */
        std::string token() const;
        /** True for an atom whose token() equals `token`. */
        bool is(std::string_view token) const;
        /** True for an atom spelling a signed int64; sets `v`. */
        bool integer(std::int64_t& v) const;
        /**
         * True for an atom strtod reads whole (decimal, hexfloat, inf,
         * nan); sets `v`.
         */
        bool number(double& v) const;
    };

    explicit SexprCursor(std::string_view text, std::string_view where = {});

    /** True when the next element is a list. */
    bool at_list();
    /** Enters the list that is next; requires at_list(). */
    void enter();
    /**
     * True when the current list (or, outside every list, the text) has
     * another element; at the end of a list, consumes its ')'.
     */
    bool more();
    /** Consumes the next element. */
    Item next();
    /**
     * When the next element is a list headed by an atom, enters it and
     * returns the head (the rest of the list is the caller's to read);
     * otherwise consumes the element and returns nothing.
     */
    std::optional<Item> field();
    /**
     * Consumes the rest of the current list, its ')' included, storing its
     * first out.size() elements in `out`; returns how many it held.
     */
    std::size_t read_rest(std::span<Item> out);
    /** Consumes the rest of the current list, its ')' included. */
    void skip_rest();
    /** Raises UserError unless only whitespace and comments remain. */
    void finish();

  private:
    [[noreturn]] void fail(const char* what) const;
    /**
     * Skips whitespace and comments; inline for the common cases, no gap
     * or the one space between elements.
     */
    void
    skip_space()
    {
        if (pos_ < text_.size() && text_[pos_] == ' ') {
            ++pos_;
        }
        if (pos_ >= text_.size() ||
            (text_[pos_] > ' ' && text_[pos_] != ';')) {
            return;
        }
        skip_space_slow();
    }
    void skip_space_slow();
    /** Consumes a quoted string or a bare atom starting at pos_. */
    void scan_atom();

    std::string_view text_;
    std::string_view where_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

/** `v` as an integer atom; raises UserError "<where>: expected ...". */
std::int64_t as_i64(const SexprCursor::Item& v, std::string_view where);

/** `v` as a number atom (integer, decimal or hexfloat). */
double as_f64(const SexprCursor::Item& v, std::string_view where);

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
        // Compared byte by byte: most names differ early, so none is
        // measured first.
        const char* candidate = name_of(static_cast<Enum>(i));
        std::size_t k = 0;
        while (k < name.size() && candidate[k] != '\0' &&
               candidate[k] == name[k]) {
            ++k;
        }
        if (k == name.size() && candidate[k] == '\0') {
            return static_cast<Enum>(i);
        }
    }
    detail::raise_user(std::string(what) + " '" + std::string(name) + "'");
}

}  // namespace diospyros
