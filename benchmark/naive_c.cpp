/**
 * @file
 * Naive fixed-size C: the run path's honest baseline. Each kernel is
 * printed as the loop nest a programmer would write with #define'd
 * sizes, and the host compiler's -O3 auto-vectorizer does the rest —
 * the analogue of the paper's Naive-fixed, independent of everything the
 * Diospyros backend emits.
 *
 * Float arithmetic is written in single precision, in the reference
 * interpreter's evaluation order, so outputs agree with it to rounding.
 */
#include "bench.h"
#include "scalar/interp.h"
#include "support/error.h"

namespace diospyros::benchmark {

namespace {

using scalar::Cond;
using scalar::CondRef;
using scalar::FloatExpr;
using scalar::FloatRef;
using scalar::IntExpr;
using scalar::IntRef;
using scalar::Stmt;
using scalar::StmtRef;

/** Prints C for one kernel. Parameters become literals ("fixed size");
 *  arrays and loop variables get prefixes so no kernel name can collide
 *  with a C keyword. */
class Printer {
  public:
    explicit Printer(const scalar::Kernel& kernel) : kernel_(kernel) {}

    std::string
    function(const std::string& symbol)
    {
        out_ += "void " + symbol + "(float* const* arrays)\n{\n";
        int slot = 0;
        for (const scalar::ArrayDecl& decl : kernel_.arrays) {
            const std::string len =
                std::to_string(scalar::array_length(kernel_, decl));
            const std::string name = "a_" + decl.name.str();
            switch (decl.role) {
              case scalar::ArrayRole::kInput:
                out_ += "    const float* restrict " + name +
                        " = arrays[" + std::to_string(slot++) + "];\n";
                break;
              case scalar::ArrayRole::kOutput:
                out_ += "    float* restrict " + name + " = arrays[" +
                        std::to_string(slot++) + "];\n";
                out_ += "    memset(" + name + ", 0, sizeof(float) * " +
                        len + ");\n";
                break;
              case scalar::ArrayRole::kScratch:
                out_ += "    float " + name + "[" + len + "] = {0};\n";
                break;
            }
        }
        stmts(kernel_.body, 1);
        out_ += "}\n";
        return out_;
    }

  private:
    void
    int_expr(const IntRef& e)
    {
        switch (e->kind) {
          case IntExpr::Kind::kConst:
            out_ += std::to_string(e->value) + "L";
            return;
          case IntExpr::Kind::kVar:
            for (const auto& [sym, value] : kernel_.params) {
                if (sym == e->var) {
                    out_ += std::to_string(value) + "L";
                    return;
                }
            }
            out_ += "v_" + e->var.str();
            return;
          default:
            out_ += '(';
            int_expr(e->a);
            out_ += e->kind == IntExpr::Kind::kAdd   ? " + "
                    : e->kind == IntExpr::Kind::kSub ? " - "
                                                     : " * ";
            int_expr(e->b);
            out_ += ')';
            return;
        }
    }

    void
    cond(const CondRef& c)
    {
        out_ += '(';
        switch (c->kind) {
          case Cond::Kind::kAnd:
          case Cond::Kind::kOr:
            cond(c->c1);
            out_ += c->kind == Cond::Kind::kAnd ? " && " : " || ";
            cond(c->c2);
            break;
          case Cond::Kind::kNot:
            out_ += '!';
            cond(c->c1);
            break;
          default: {
            int_expr(c->x);
            const Cond::Kind k = c->kind;
            out_ += k == Cond::Kind::kLt   ? " < "
                    : k == Cond::Kind::kLe ? " <= "
                    : k == Cond::Kind::kGt ? " > "
                    : k == Cond::Kind::kGe ? " >= "
                    : k == Cond::Kind::kEq ? " == "
                                           : " != ";
            int_expr(c->y);
            break;
          }
        }
        out_ += ')';
    }

    void
    float_expr(const FloatRef& e)
    {
        switch (e->kind) {
          case FloatExpr::Kind::kConst:
            // The interpreter rounds the exact rational through double.
            out_ += "((float)((double)" + std::to_string(e->value.num()) +
                    " / (double)" + std::to_string(e->value.den()) + "))";
            return;
          case FloatExpr::Kind::kLoad:
            out_ += "a_" + e->array.str() + '[';
            int_expr(e->index);
            out_ += ']';
            return;
          case FloatExpr::Kind::kNeg:
            out_ += "(-";
            float_expr(e->args[0]);
            out_ += ')';
            return;
          case FloatExpr::Kind::kSqrt:
            out_ += "sqrtf(";
            float_expr(e->args[0]);
            out_ += ')';
            return;
          case FloatExpr::Kind::kSgn:
            out_ += "dios_sgn(";
            float_expr(e->args[0]);
            out_ += ')';
            return;
          case FloatExpr::Kind::kCall:
            DIOS_CHECK(false, "naive C has no semantics for user calls");
            return;
          default:
            out_ += '(';
            float_expr(e->args[0]);
            out_ += e->kind == FloatExpr::Kind::kAdd   ? " + "
                    : e->kind == FloatExpr::Kind::kSub ? " - "
                    : e->kind == FloatExpr::Kind::kMul ? " * "
                                                       : " / ";
            float_expr(e->args[1]);
            out_ += ')';
            return;
        }
    }

    void
    stmts(const std::vector<StmtRef>& list, int depth)
    {
        for (const StmtRef& s : list) {
            stmt(s, depth);
        }
    }

    void
    stmt(const StmtRef& s, int depth)
    {
        const std::string pad(static_cast<std::size_t>(depth) * 4, ' ');
        switch (s->kind) {
          case Stmt::Kind::kStore:
            out_ += pad + "a_" + s->array.str() + '[';
            int_expr(s->index);
            out_ += "] = ";
            float_expr(s->value);
            out_ += ";\n";
            return;
          case Stmt::Kind::kFor: {
            const std::string v = "v_" + s->loop_var.str();
            out_ += pad + "for (long " + v + " = ";
            int_expr(s->lo);
            out_ += "; " + v + " < ";
            int_expr(s->hi);
            out_ += "; ++" + v + ") {\n";
            stmts(s->body, depth + 1);
            out_ += pad + "}\n";
            return;
          }
          case Stmt::Kind::kIf:
            out_ += pad + "if ";
            cond(s->cond);
            out_ += " {\n";
            stmts(s->body, depth + 1);
            out_ += pad + "} else {\n";
            stmts(s->else_body, depth + 1);
            out_ += pad + "}\n";
            return;
          case Stmt::Kind::kBlock:
            out_ += pad + "{\n";
            stmts(s->body, depth + 1);
            out_ += pad + "}\n";
            return;
        }
    }

    const scalar::Kernel& kernel_;
    std::string out_;
};

}  // namespace

std::string
naive_c_text(const scalar::Kernel& kernel, const std::string& symbol)
{
    return "#include <math.h>\n#include <string.h>\n\n"
           "static inline float dios_sgn(float x)\n{\n"
           "    return (float)((x > 0.0f) - (x < 0.0f));\n}\n\n" +
           Printer(kernel).function(symbol);
}

}  // namespace diospyros::benchmark
