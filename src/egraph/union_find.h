/**
 * @file
 * Union-find over e-class ids with path halving.
 *
 * Follows the egg design: no union-by-rank, because egg deliberately makes
 * the *second* argument of union the new root so callers can control which
 * id survives (useful for keeping analysis data stable).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.h"

namespace diospyros {

/** Identifier of an e-class. */
using ClassId = std::uint32_t;

/** Disjoint-set forest keyed by dense ClassIds. */
class UnionFind {
  public:
    /** Creates a fresh singleton set and returns its id. */
    ClassId
    make_set()
    {
        const ClassId id = static_cast<ClassId>(parents_.size());
        parents_.push_back(id);
        min_.push_back(id);
        return id;
    }

    std::size_t size() const { return parents_.size(); }

    /** Bytes held by the forest's two tables. */
    std::size_t
    memory_bytes() const
    {
        return (parents_.capacity() + min_.capacity()) * sizeof(ClassId);
    }

    /** Canonical representative of id's set (with path halving). */
    ClassId
    find(ClassId id)
    {
        DIOS_ASSERT(id < parents_.size(), "union-find id out of range");
        while (parents_[id] != id) {
            parents_[id] = parents_[parents_[id]];
            id = parents_[id];
        }
        return id;
    }

    /** Non-mutating find (no path compression); for const contexts. */
    ClassId
    find_const(ClassId id) const
    {
        DIOS_ASSERT(id < parents_.size(), "union-find id out of range");
        while (parents_[id] != id) {
            id = parents_[id];
        }
        return id;
    }

    /**
     * Unions the sets of a and b; the canonical representative of *a*
     * becomes the root. Returns the surviving root.
     */
    ClassId
    merge(ClassId a, ClassId b)
    {
        const ClassId ra = find(a);
        const ClassId rb = find(b);
        parents_[rb] = ra;
        if (min_[rb] < min_[ra]) {
            min_[ra] = min_[rb];
        }
        return ra;
    }

    /** True when a and b are in the same set. */
    bool same(ClassId a, ClassId b) { return find(a) == find(b); }

    /**
     * Smallest member id of `id`'s set. Because ids are handed out
     * sequentially, this is the set's creation ordinal — the position its
     * class occupies in EGraph::class_ids(). The op-index sorts candidate
     * classes by this key so an indexed search visits classes in exactly
     * the order a naive full scan would.
     */
    ClassId
    min_member(ClassId id) const
    {
        return min_[find_const(id)];
    }

  private:
    std::vector<ClassId> parents_;
    /** Per root: the smallest id in the set (valid at roots only). */
    std::vector<ClassId> min_;
};

}  // namespace diospyros
