#include "scalar/parse.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::scalar {

namespace {

[[noreturn]] void
fail(const std::string& what, const Sexpr& at)
{
    throw UserError("kernel parse error: " + what + " in " +
                    at.to_string());
}

IntRef
parse_iexpr(const Sexpr& s)
{
    if (s.is_atom()) {
        if (s.is_integer()) {
            return IntExpr::constant(s.as_integer());
        }
        return IntExpr::variable(Symbol(s.token()));
    }
    if (s.size() < 3 || !s[0].is_atom()) {
        fail("integer expression needs an operator and >= 2 operands", s);
    }
    const std::string& op = s[0].token();
    IntExpr::Kind kind;
    if (op == "+") {
        kind = IntExpr::Kind::kAdd;
    } else if (op == "-") {
        kind = IntExpr::Kind::kSub;
    } else if (op == "*") {
        kind = IntExpr::Kind::kMul;
    } else {
        fail("unknown integer operator '" + op + "'", s);
    }
    IntRef acc = parse_iexpr(s[1]);
    for (std::size_t i = 2; i < s.size(); ++i) {
        acc = IntExpr::binary(kind, acc, parse_iexpr(s[i]));
    }
    return acc;
}

CondRef
parse_cond(const Sexpr& s)
{
    if (!s.is_list() || s.size() < 2 || !s[0].is_atom()) {
        fail("malformed condition", s);
    }
    const std::string& op = s[0].token();
    if (op == "and" || op == "or") {
        if (s.size() < 3) {
            fail("'" + op + "' needs >= 2 operands", s);
        }
        CondRef acc = parse_cond(s[1]);
        for (std::size_t i = 2; i < s.size(); ++i) {
            acc = op == "and" ? Cond::logical_and(acc, parse_cond(s[i]))
                              : Cond::logical_or(acc, parse_cond(s[i]));
        }
        return acc;
    }
    if (op == "not") {
        if (s.size() != 2) {
            fail("'not' takes one operand", s);
        }
        return Cond::logical_not(parse_cond(s[1]));
    }
    if (s.size() != 3) {
        fail("comparison takes two operands", s);
    }
    Cond::Kind kind;
    if (op == "<") {
        kind = Cond::Kind::kLt;
    } else if (op == "<=") {
        kind = Cond::Kind::kLe;
    } else if (op == ">") {
        kind = Cond::Kind::kGt;
    } else if (op == ">=") {
        kind = Cond::Kind::kGe;
    } else if (op == "==") {
        kind = Cond::Kind::kEq;
    } else if (op == "!=") {
        kind = Cond::Kind::kNe;
    } else {
        fail("unknown comparison '" + op + "'", s);
    }
    return Cond::compare(kind, parse_iexpr(s[1]), parse_iexpr(s[2]));
}

FloatRef
parse_fexpr(const Sexpr& s)
{
    if (s.is_atom()) {
        if (s.is_integer()) {
            return FloatExpr::constant(Rational(s.as_integer()));
        }
        // Rational literal n/d.
        const std::string& tok = s.token();
        const std::size_t slash = tok.find('/');
        if (slash != std::string::npos) {
            const Sexpr num = Sexpr::atom(tok.substr(0, slash));
            const Sexpr den = Sexpr::atom(tok.substr(slash + 1));
            if (num.is_integer() && den.is_integer() &&
                den.as_integer() != 0) {
                return FloatExpr::constant(
                    Rational(num.as_integer(), den.as_integer()));
            }
        }
        fail("float expressions may not reference bare variables; use "
             "(load <array> <index>)",
             s);
    }
    if (s.size() < 2 || !s[0].is_atom()) {
        fail("malformed float expression", s);
    }
    const std::string& op = s[0].token();
    if (op == "load") {
        if (s.size() != 3 || !s[1].is_atom()) {
            fail("load expects (load <array> <index>)", s);
        }
        return FloatExpr::load(Symbol(s[1].token()), parse_iexpr(s[2]));
    }
    if (op == "neg" || op == "sqrt" || op == "sgn") {
        if (s.size() != 2) {
            fail("'" + op + "' takes one operand", s);
        }
        const FloatExpr::Kind kind = op == "neg"    ? FloatExpr::Kind::kNeg
                                     : op == "sqrt" ? FloatExpr::Kind::kSqrt
                                                    : FloatExpr::Kind::kSgn;
        return FloatExpr::unary(kind, parse_fexpr(s[1]));
    }
    if (op == "call") {
        if (s.size() < 2 || !s[1].is_atom()) {
            fail("call expects (call <fn> args...)", s);
        }
        std::vector<FloatRef> args;
        for (std::size_t i = 2; i < s.size(); ++i) {
            args.push_back(parse_fexpr(s[i]));
        }
        return FloatExpr::call(Symbol(s[1].token()), std::move(args));
    }
    FloatExpr::Kind kind;
    if (op == "+") {
        kind = FloatExpr::Kind::kAdd;
    } else if (op == "-") {
        kind = FloatExpr::Kind::kSub;
    } else if (op == "*") {
        kind = FloatExpr::Kind::kMul;
    } else if (op == "/") {
        kind = FloatExpr::Kind::kDiv;
    } else {
        fail("unknown float operator '" + op + "'", s);
    }
    if (s.size() < 3) {
        fail("'" + op + "' needs >= 2 operands", s);
    }
    FloatRef acc = parse_fexpr(s[1]);
    for (std::size_t i = 2; i < s.size(); ++i) {
        acc = FloatExpr::binary(kind, acc, parse_fexpr(s[i]));
    }
    return acc;
}

StmtRef parse_stmt(const Sexpr& s);

std::vector<StmtRef>
parse_stmts(const Sexpr& s, std::size_t first)
{
    std::vector<StmtRef> out;
    for (std::size_t i = first; i < s.size(); ++i) {
        out.push_back(parse_stmt(s[i]));
    }
    return out;
}

StmtRef
parse_stmt(const Sexpr& s)
{
    if (!s.is_list() || s.size() < 1 || !s[0].is_atom()) {
        fail("malformed statement", s);
    }
    const std::string& op = s[0].token();
    if (op == "store" || op == "accumulate") {
        if (s.size() != 4 || !s[1].is_atom()) {
            fail("expects (" + op + " <array> <index> <value>)", s);
        }
        const Symbol array{s[1].token()};
        IntRef index = parse_iexpr(s[2]);
        FloatRef value = parse_fexpr(s[3]);
        if (op == "accumulate") {
            value = FloatExpr::load(array, index) + value;
        }
        return Stmt::store(array, std::move(index), std::move(value));
    }
    if (op == "for") {
        if (s.size() < 5 || !s[1].is_atom()) {
            fail("expects (for <var> <lo> <hi> stmt...)", s);
        }
        return Stmt::for_loop(Symbol(s[1].token()), parse_iexpr(s[2]),
                              parse_iexpr(s[3]), parse_stmts(s, 4));
    }
    if (op == "if") {
        if (s.size() < 3) {
            fail("expects (if <cond> stmt...)", s);
        }
        return Stmt::if_then(parse_cond(s[1]), parse_stmts(s, 2));
    }
    if (op == "if-else") {
        if (s.size() != 4 || !is_field(s[2], "then") ||
            !is_field(s[3], "else")) {
            fail("expects (if-else <cond> (then ...) (else ...))", s);
        }
        return Stmt::if_then(parse_cond(s[1]), parse_stmts(s[2], 1),
                             parse_stmts(s[3], 1));
    }
    if (op == "block") {
        return Stmt::block(parse_stmts(s, 1));
    }
    fail("unknown statement '" + op + "'", s);
}

/**
 * Array extent `e` under the kernel's parameters, in checked arithmetic
 * (one that overflowed would wrap to a small array): nullopt past int64.
 */
std::optional<std::int64_t>
extent(const IntExpr& e, const Kernel& kernel)
{
    if (e.kind == IntExpr::Kind::kConst || e.kind == IntExpr::Kind::kVar) {
        return e.kind == IntExpr::Kind::kConst ? e.value
                                               : kernel.param(e.var.str());
    }
    const std::optional<std::int64_t> a = extent(*e.a, kernel);
    const std::optional<std::int64_t> b = extent(*e.b, kernel);
    std::int64_t v = 0;
    if (!a || !b ||
        (e.kind == IntExpr::Kind::kAdd   ? __builtin_add_overflow(*a, *b, &v)
         : e.kind == IntExpr::Kind::kSub ? __builtin_sub_overflow(*a, *b, &v)
                                         : __builtin_mul_overflow(*a, *b, &v))) {
        return std::nullopt;
    }
    return v;
}

void
check_arrays_stmt(const Stmt& stmt,
                  const std::vector<ArrayDecl>& arrays);

void
check_arrays_fexpr(const FloatExpr& e,
                   const std::vector<ArrayDecl>& arrays)
{
    if (e.kind == FloatExpr::Kind::kLoad) {
        for (const ArrayDecl& d : arrays) {
            if (d.name == e.array) {
                return;
            }
        }
        throw UserError("kernel parse error: load from undeclared array '" +
                        e.array.str() + "'");
    }
    for (const FloatRef& a : e.args) {
        check_arrays_fexpr(*a, arrays);
    }
}

void
check_arrays_stmt(const Stmt& stmt, const std::vector<ArrayDecl>& arrays)
{
    if (stmt.kind == Stmt::Kind::kStore) {
        bool found = false;
        for (const ArrayDecl& d : arrays) {
            found |= d.name == stmt.array;
        }
        if (!found) {
            throw UserError(
                "kernel parse error: store to undeclared array '" +
                stmt.array.str() + "'");
        }
        check_arrays_fexpr(*stmt.value, arrays);
    }
    for (const StmtRef& c : stmt.body) {
        check_arrays_stmt(*c, arrays);
    }
    for (const StmtRef& c : stmt.else_body) {
        check_arrays_stmt(*c, arrays);
    }
}

}  // namespace

Kernel
parse_kernel(const std::string& text)
{
    const Sexpr top = parse_sexpr(text);
    if (!is_field(top, "kernel") || top.size() < 2 || !top[1].is_atom()) {
        throw UserError(
            "kernel source must start with (kernel <name> ...)");
    }
    KernelBuilder kb(top[1].token());
    std::size_t i = 2;
    // Declarations first.
    for (; i < top.size(); ++i) {
        const Sexpr& d = top[i];
        if (is_field(d, "param")) {
            if (d.size() != 3 || !d[1].is_atom() || !d[2].is_integer()) {
                fail("expects (param <name> <int>)", d);
            }
            kb.param(d[1].token(), d[2].as_integer());
        } else if (is_field(d, "input") || is_field(d, "output") ||
                   is_field(d, "scratch")) {
            if (d.size() != 3 || !d[1].is_atom()) {
                fail("expects (<role> <name> <size>)", d);
            }
            const IntRef size = parse_iexpr(d[2]);
            if (d[0].token() == "input") {
                kb.input(d[1].token(), size);
            } else if (d[0].token() == "output") {
                kb.output(d[1].token(), size);
            } else {
                kb.scratch(d[1].token(), size);
            }
        } else {
            break;  // statements begin
        }
    }
    for (; i < top.size(); ++i) {
        kb.append(parse_stmt(top[i]));
    }
    Kernel kernel = kb.build();
    for (const StmtRef& stmt : kernel.body) {
        check_arrays_stmt(*stmt, kernel.arrays);
    }
    // The machine lays the arrays out one after another and addresses
    // them in int words.
    std::int64_t end = 0;
    for (const ArrayDecl& d : kernel.arrays) {
        const std::optional<std::int64_t> n = extent(*d.size, kernel);
        if (!n || *n > std::numeric_limits<int>::max() - end) {
            throw UserError("kernel parse error: array '" + d.name.str() +
                            "' lies beyond the machine's int word "
                            "addresses");
        }
        end += std::max<std::int64_t>(*n, 0);
    }
    return kernel;
}

Kernel
parse_kernel_file(const std::string& path)
{
    std::ifstream in(path);
    DIOS_CHECK(in.good(), "cannot open kernel file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_kernel(buffer.str());
}

}  // namespace diospyros::scalar
