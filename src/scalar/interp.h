/**
 * @file
 * Concrete reference interpreter for scalar kernels.
 *
 * This is the golden model for every backend: baseline machine code,
 * library substitutes, and Diospyros-compiled kernels are all checked
 * against it (in float precision, matching the simulated hardware).
 */
#pragma once

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "scalar/ast.h"

namespace diospyros::scalar {

/** Named float buffers passed into / out of kernel execution. */
using BufferMap = std::unordered_map<std::string, std::vector<float>>;

/** Optional semantics for user-defined functions used by a kernel. */
using FunctionMap = std::unordered_map<
    std::string, std::function<float(std::span<const float>)>>;

/**
 * Runs `kernel` on the given inputs; returns all output arrays.
 * Output and scratch arrays start zero-initialized. Raises UserError on
 * missing/ill-sized inputs or out-of-bounds accesses.
 */
BufferMap run_reference(const Kernel& kernel, const BufferMap& inputs,
                        const FunctionMap& functions = {});

/**
 * Evaluates an integer expression under parameter/loop bindings. Raises
 * UserError when a sum, difference or product leaves int64.
 */
std::int64_t eval_int(const IntExpr& e,
                      const std::unordered_map<Symbol, std::int64_t>& env);

/** Evaluates a condition under parameter/loop bindings. */
bool eval_cond(const Cond& c,
               const std::unordered_map<Symbol, std::int64_t>& env);

/** Concrete flattened length of a kernel array. */
std::int64_t array_length(const Kernel& kernel, const ArrayDecl& decl);

}  // namespace diospyros::scalar
