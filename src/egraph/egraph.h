/**
 * @file
 * The e-graph: a congruence-closed union of program terms (paper §3.3).
 *
 * Follows the egg architecture (Willsey et al., POPL 2021): mutation
 * (add/merge) is cheap and may temporarily break the congruence invariant;
 * rebuild() restores it in a batched pass. Rewrites therefore run in
 * match-all-then-apply-then-rebuild rounds (see Runner).
 *
 * Storage is flat and indexed by dense ids. Each e-node is stored once,
 * as a NodeId into one node table whose children live in a single
 * ClassId pool; classes sit in a vector indexed by ClassId and list their
 * nodes and parents by NodeId; the hashcons is an open-addressing set of
 * NodeIds hashed by their current content. A merge queues the absorbed
 * class's parents, the only nodes that can hold a non-canonical child,
 * and rebuild() re-canonicalizes exactly those, as egg does. DESIGN.md
 * ("E-graph storage") states the order rules that decide what gets
 * extracted.
 *
 * A built-in constant-folding e-class analysis tracks classes whose value
 * is a known rational and injects the corresponding Const node, mirroring
 * egg's analysis mechanism.
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "egraph/enode.h"
#include "egraph/union_find.h"
#include "ir/term.h"

namespace diospyros {

/** Identifier of a stored e-node (index into the graph's node table). */
using NodeId = std::uint32_t;

static_assert(kNumOps <= 32, "EGraph::op_mask holds one bit per operator");

/** An equivalence class of e-nodes. */
class EClass {
  public:
    EClass() = default;
    /**
     * A copy keeps each list's capacity: the graph sums those capacities
     * in one running total (memory_proxy_bytes), which a copied graph
     * inherits and check_invariants() recounts.
     */
    EClass(const EClass& other) : constant(other.constant)
    {
        nodes.reserve(other.nodes.capacity());
        nodes = other.nodes;
        parents_.reserve(other.parents_.capacity());
        parents_ = other.parents_;
    }
    EClass& operator=(const EClass& other) { return *this = EClass(other); }
    EClass(EClass&&) = default;
    EClass& operator=(EClass&&) = default;

    /** Nodes of this class, in the order they joined it. */
    std::vector<NodeId> nodes;
    /** Constant-folding analysis: value if the class is a known constant. */
    std::optional<Rational> constant;

  private:
    friend class EGraph;

    /** Nodes that have this class as a child. */
    std::vector<NodeId> parents_;
};

/** E-graph over the vector DSL. */
class EGraph {
  public:
    /** @param enable_constant_folding run the constant analysis. */
    explicit EGraph(bool enable_constant_folding = true)
        : fold_constants_(enable_constant_folding)
    {
    }

    /**
     * An independent copy: every table, stamp, mask and op-index list,
     * so the copy searches exactly as the original did when copied, and
     * later changes to either leave the other alone. Its tables are sized
     * to their contents (each class list keeps its capacity), so its
     * memory_proxy_bytes() can read less than the original's.
     * Runner::run takes one, at most once per iteration, as the snapshot
     * its remaining searches read once it applies batches early
     * (DESIGN.md §5f).
     */
    EGraph(const EGraph&) = default;
    EGraph(EGraph&&) = default;
    EGraph& operator=(const EGraph&) = default;
    EGraph& operator=(EGraph&&) = default;

    /** Adds an e-node (children need not be canonical); returns its class. */
    ClassId add(ENode node);

    /** Adds a whole term bottom-up; returns the root's class. */
    ClassId add_term(const TermRef& term);

    /** Convenience leaf/operator insertion helpers. */
    ClassId add_const(Rational v) { return add(ENode::make_const(v)); }
    ClassId
    add_get(Symbol array, std::int64_t index)
    {
        return add(ENode::make_get(array, index));
    }
    ClassId
    add_op(Op op, std::vector<ClassId> children)
    {
        return add(ENode::make(op, std::move(children)));
    }

    /**
     * Asserts a = b. Returns true if this changed the graph (the classes
     * were previously distinct). Congruence is restored lazily: call
     * rebuild() before reading the graph again.
     */
    bool merge(ClassId a, ClassId b);

    /** Restores the congruence and hashcons invariants. */
    void rebuild();

    /** Canonical id for a class. */
    ClassId find(ClassId id) { return uf_.find(id); }
    ClassId find_const(ClassId id) const { return uf_.find_const(id); }

    /**
     * Looks up the class that already represents this e-node, if any.
     * The node is canonicalized first. Requires a clean (rebuilt) graph.
     */
    std::optional<ClassId> lookup(ENode node);

    /**
     * Const variant of lookup() (no path compression); for read-only
     * passes such as the analysis auditor.
     */
    std::optional<ClassId> lookup_const(ENode node) const;

    /** The class for a canonical id. */
    const EClass&
    eclass(ClassId id) const
    {
        return classes_[uf_.find_const(id)];
    }

    /**
     * A stored e-node. Its children are raw class ids (canonical as of
     * the last rebuild that touched the node): pass them through
     * find_const() before comparing.
     */
    ENodeView
    node(NodeId id) const
    {
        const NodeRec& r = nodes_[id];
        ENodeView v;
        v.op = r.op;
        v.children = {children_.data() + r.first, r.arity};
        if (r.payload != kNoPayload) {
            const Payload& p = payloads_[r.payload];
            v.value = p.value;
            v.symbol = p.symbol;
            v.index = p.index;
        }
        return v;
    }

    /** The nodes of a class as views, in class order. */
    auto
    class_nodes(ClassId id) const
    {
        return eclass(id).nodes |
               std::views::transform([this](NodeId n) { return node(n); });
    }

    /** All canonical class ids (stable order of creation). */
    std::vector<ClassId> class_ids() const;

    /**
     * One past the largest class id ever handed out: dense per-class
     * tables (the extractor's) are sized by it.
     */
    std::size_t class_id_bound() const { return classes_.size(); }

    /**
     * Op-index: the canonical classes containing at least one e-node with
     * operator `op`, in class_ids() order — the e-matching fast path. A
     * searcher whose pattern root is a fixed operator visits only these
     * classes instead of scanning the whole graph, with identical results
     * (an e-class only ever *gains* operators, so the index has no false
     * negatives, and entries are re-canonicalized before being returned).
     *
     * The underlying journal is append-only on add(); queries compact it
     * lazily (canonicalize, dedup, sort by creation ordinal) and cache
     * the compacted form until the next graph mutation. Requires a clean
     * (rebuilt) graph so canonical ids are stable.
     */
    const std::vector<ClassId>& classes_with_op(Op op) const;

    /**
     * Number of stored e-nodes. Congruent duplicates that rebuild() found
     * stay in their (merged) class and are counted, so this equals the
     * sum of eclass(id).nodes.size() over class_ids().
     */
    std::size_t num_nodes() const { return nodes_.size(); }

    /** Number of canonical e-classes. */
    std::size_t num_classes() const { return classes_.size() - union_count_; }

    /** Number of unions performed since construction. */
    std::size_t union_count() const { return union_count_; }

    /**
     * Bytes the e-graph's storage holds right now: the capacities of the
     * node table, child pool, payloads, class table, class node and
     * parent lists, per-class stamps and operator masks, rebuild's
     * pending list, hashcons, union-find and op-index. Table 1's
     * "Memory" column, `dioscc --json`'s memory_proxy_bytes and the
     * saturation runner's memory watchdog
     * (RunnerLimits::memory_limit_bytes) all read it. O(1).
     */
    std::size_t memory_proxy_bytes() const;

    /**
     * Starts the next saturation generation and returns it. Runner::run
     * calls this once per iteration, before its search phase, so a class
     * touched during that iteration's apply or rebuild carries the
     * generation its searches ran at.
     */
    std::uint32_t next_generation() { return ++generation_; }

    /**
     * The generation in which class `id` last gained a node: add()
     * created it or stored a folded Const node in it, merge() made it
     * the root (it took the absorbed class's nodes and constant), or
     * rebuild() re-canonicalized one of its nodes. A class's nodes,
     * their children and its constant change only through these paths,
     * so a class stamped before generation g reads exactly as it did
     * when a search at g began.
     */
    std::uint32_t
    touched(ClassId id) const
    {
        return touched_[uf_.find_const(id)];
    }

    /** The operators of a class's nodes: bit i is set for Op i. */
    std::uint32_t
    op_mask(ClassId id) const
    {
        return op_mask_[uf_.find_const(id)];
    }

    /** True when class `id` holds a node with operator `op`. O(1). */
    bool
    has_op(ClassId id, Op op) const
    {
        return (op_mask(id) >> static_cast<unsigned>(op) & 1u) != 0;
    }

    /**
     * Semi-naive search's candidate filter. Resizes `level` to
     * class_id_bound() and sets each canonical class's entry to the
     * fewest parent steps from it down to a class touched at or after
     * generation `since`, for distances below `depth`; every other entry
     * is 0xff. A match of depth d can differ from the one found at
     * `since` only when its root's level is below d. Requires a clean
     * graph.
     */
    void dirty_levels(std::uint32_t since, int depth,
                      std::vector<std::uint8_t>& level) const;

    /** True when no merge happened since the last rebuild(). */
    bool is_clean() const { return !dirty_; }

    /** Constant value of a class, if the analysis derived one. */
    std::optional<Rational>
    constant_of(ClassId id) const
    {
        return eclass(id).constant;
    }

    /**
     * Checks internal invariants (hashcons canonical and complete,
     * congruence closed, node and class counters exact); for tests.
     * Requires a clean graph.
     */
    void check_invariants() const;

    /** Multi-line dump for debugging. */
    std::string dump() const;

    /**
     * Graphviz rendering: one cluster per e-class, one node per e-node,
     * edges to child classes. Feed to `dot -Tsvg` when debugging rewrite
     * rules (the workflow §3.4 says translation validation supports).
     */
    std::string to_dot() const;

  private:
    static constexpr std::uint32_t kNoPayload = 0xffffffffu;
    static constexpr NodeId kNoNode = 0xffffffffu;

    /** One stored e-node. */
    struct NodeRec {
        /** Children: children_[first, first + arity). */
        std::uint32_t first;
        std::uint32_t arity;
        /** The class the node was added to (find() gives its class). */
        ClassId cls;
        /** Index into payloads_, or kNoPayload for a default payload. */
        std::uint32_t payload;
        Op op;
    };

    /** Leaf payload, stored only when it differs from the default. */
    struct Payload {
        Rational value;
        Symbol symbol;
        std::int64_t index;
    };

    /** Hashcons slot: a node id and 32 bits of its content hash. */
    struct Slot {
        std::uint32_t hash;
        NodeId node;
    };

    /** Appends `node` (children already canonical) to class `cls`. */
    NodeId store_node(const ENodeView& node, ClassId cls);

    /** Computes the analysis value of a node from child analyses. */
    std::optional<Rational> fold_node(const ENodeView& node) const;

    /** Applies analysis consequences (inject Const node) to a class. */
    void modify(ClassId id);

    /** Records `id` in the op-index journal for `op`. */
    void
    index_op(Op op, ClassId id)
    {
        op_index_[static_cast<std::size_t>(op)].push_back(id);
        ++index_version_;
    }

    /** push_back that keeps list_bytes_ equal to the lists' capacity. */
    template <typename T>
    void
    push_tracked(std::vector<T>& list, T value)
    {
        const std::size_t before = list.capacity();
        list.push_back(value);
        list_bytes_ += (list.capacity() - before) * sizeof(T);
    }

    /** Moves all of `from` onto the end of `to`, freeing `from`. */
    template <typename T>
    void
    splice_tracked(std::vector<T>& to, std::vector<T>& from)
    {
        const std::size_t before = to.capacity() + from.capacity();
        to.insert(to.end(), from.begin(), from.end());
        std::vector<T>().swap(from);
        list_bytes_ += to.capacity() * sizeof(T);
        list_bytes_ -= before * sizeof(T);
    }

    /** Hashcons: the node whose content equals `key`, or kNoNode. */
    NodeId memo_find(const ENodeView& key, std::size_t hash) const;
    /** Hashcons: adds `node` under its current content. */
    void memo_insert(NodeId node, std::size_t hash);
    /** Hashcons: removes `node`'s entry (filed under `hash`), if any. */
    void memo_erase(NodeId node, std::size_t hash);

    UnionFind uf_;
    std::vector<NodeRec> nodes_;
    std::vector<ClassId> children_;
    std::vector<Payload> payloads_;
    /** Indexed by ClassId; absorbed classes keep an empty slot. */
    std::vector<EClass> classes_;
    /** Indexed by ClassId: see touched() and op_mask(). */
    std::vector<std::uint32_t> touched_;
    std::vector<std::uint32_t> op_mask_;
    std::uint32_t generation_ = 0;
    /** Open-addressing hashcons (linear probing, power-of-two size). */
    std::vector<Slot> memo_;
    std::size_t memo_size_ = 0;
    /** Parents of absorbed classes, not yet re-canonicalized. */
    std::vector<NodeId> pending_;
    /** Set by merge(), cleared by rebuild(). */
    bool dirty_ = false;
    std::size_t union_count_ = 0;
    /** Sum of capacity() * element size over all class lists. */
    std::size_t list_bytes_ = 0;
    bool fold_constants_;

    /** Per-class stamps for the op-index's dedup pass. */
    mutable std::vector<std::uint32_t> class_mark_;
    mutable std::uint32_t class_stamp_ = 0;

    /**
     * Op → classes journal (see classes_with_op). Mutable: queries
     * compact in place under const, like union-find path compression.
     * `op_index_clean_[op]` caches which `index_version_` the entry was
     * last compacted at; any mutation bumps the version and invalidates.
     */
    mutable std::array<std::vector<ClassId>, kNumOps> op_index_;
    mutable std::array<std::uint64_t, kNumOps> op_index_clean_{};
    std::uint64_t index_version_ = 1;
};

/**
 * Reconstructs a term for `node` given already-extracted child terms.
 * Used by extraction.
 */
TermRef enode_to_term(const ENodeView& node,
                      const std::vector<TermRef>& kids);

}  // namespace diospyros
