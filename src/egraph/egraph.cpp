#include "egraph/egraph.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "support/error.h"

namespace diospyros {

namespace {

/** The 32 bits of a content hash the hashcons keeps (mixed, high half). */
std::uint32_t
slot_hash(std::size_t hash)
{
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> 32);
}

}  // namespace

NodeId
EGraph::store_node(const ENodeView& node, ClassId cls)
{
    const auto id = static_cast<NodeId>(nodes_.size());
    NodeRec rec{static_cast<std::uint32_t>(children_.size()),
                static_cast<std::uint32_t>(node.children.size()), cls,
                kNoPayload, node.op};
    if (node.value != Rational() || node.symbol.valid() || node.index != 0) {
        rec.payload = static_cast<std::uint32_t>(payloads_.size());
        payloads_.push_back(Payload{node.value, node.symbol, node.index});
    }
    children_.insert(children_.end(), node.children.begin(),
                     node.children.end());
    nodes_.push_back(rec);
    push_tracked(classes_[cls].nodes, id);
    return id;
}

NodeId
EGraph::memo_find(const ENodeView& key, std::size_t hash) const
{
    if (memo_.empty()) {
        return kNoNode;
    }
    const std::uint32_t h = slot_hash(hash);
    const std::size_t mask = memo_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const Slot& s = memo_[i];
        if (s.node == kNoNode) {
            return kNoNode;
        }
        if (s.hash == h) {
            const NodeRec& r = nodes_[s.node];
            if (r.op == key.op && r.arity == key.children.size() &&
                node(s.node).same_as(key)) {
                return s.node;
            }
        }
    }
}

void
EGraph::memo_insert(NodeId id, std::size_t hash)
{
    if ((memo_size_ + 1) * 4 > memo_.size() * 3) {
        // Grow to keep the load factor at or below 3/4.
        std::vector<Slot> old(std::max<std::size_t>(64, memo_.size() * 2),
                              Slot{0, kNoNode});
        old.swap(memo_);
        const std::size_t mask = memo_.size() - 1;
        for (const Slot& s : old) {
            if (s.node == kNoNode) {
                continue;
            }
            std::size_t i = s.hash & mask;
            while (memo_[i].node != kNoNode) {
                i = (i + 1) & mask;
            }
            memo_[i] = s;
        }
    }
    const std::uint32_t h = slot_hash(hash);
    const std::size_t mask = memo_.size() - 1;
    std::size_t i = h & mask;
    while (memo_[i].node != kNoNode) {
        i = (i + 1) & mask;
    }
    memo_[i] = Slot{h, id};
    ++memo_size_;
}

void
EGraph::memo_erase(NodeId id, std::size_t hash)
{
    if (memo_.empty()) {
        return;
    }
    const std::size_t mask = memo_.size() - 1;
    std::size_t i = slot_hash(hash) & mask;
    for (;; i = (i + 1) & mask) {
        if (memo_[i].node == kNoNode) {
            return;
        }
        if (memo_[i].node == id) {
            break;
        }
    }
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless that would move them before their home slot.
    for (std::size_t j = (i + 1) & mask; memo_[j].node != kNoNode;
         j = (j + 1) & mask) {
        const std::size_t home = memo_[j].hash & mask;
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (!stays) {
            memo_[i] = memo_[j];
            i = j;
        }
    }
    memo_[i].node = kNoNode;
    --memo_size_;
}

ClassId
EGraph::add(ENode node)
{
    node.canonicalize(uf_);
    const std::size_t hash = enode_hash(node);
    if (const NodeId hit = memo_find(node, hash); hit != kNoNode) {
        return uf_.find(nodes_[hit].cls);
    }
    const ClassId id = uf_.make_set();
    classes_.emplace_back();
    if (fold_constants_) {
        classes_[id].constant = fold_node(node);
    }
    const NodeId nid = store_node(node, id);
    for (const ClassId child : node.children) {
        push_tracked(classes_[child].parents_, nid);
    }
    memo_insert(nid, hash);
    index_op(node.op, id);
    modify(id);
    return uf_.find(id);
}

ClassId
EGraph::add_term(const TermRef& term)
{
    DIOS_ASSERT(term != nullptr, "add_term() on null term");
    // Iterative post-order with pointer memoization: specs are DAGs with
    // heavy sharing (paper §4's fully-unrolled kernels), so each distinct
    // subterm is inserted once.
    std::unordered_map<const Term*, ClassId> done;
    std::vector<std::pair<const Term*, bool>> stack{{term.get(), false}};
    while (!stack.empty()) {
        auto [t, expanded] = stack.back();
        stack.pop_back();
        if (done.count(t)) {
            continue;
        }
        if (!expanded) {
            stack.push_back({t, true});
            for (const TermRef& c : t->children()) {
                if (!done.count(c.get())) {
                    stack.push_back({c.get(), false});
                }
            }
            continue;
        }
        std::vector<ClassId> kids;
        kids.reserve(t->arity());
        for (const TermRef& c : t->children()) {
            kids.push_back(done.at(c.get()));
        }
        ENode node;
        switch (t->op()) {
          case Op::kConst:
            node = ENode::make_const(t->value());
            break;
          case Op::kSymbol:
            node = ENode::make_symbol(t->symbol());
            break;
          case Op::kGet:
            node = ENode::make_get(t->symbol(), t->index());
            break;
          case Op::kCall:
            node = ENode::make_call(t->symbol(), std::move(kids));
            break;
          default:
            node = ENode::make(t->op(), std::move(kids));
            break;
        }
        done.emplace(t, add(std::move(node)));
    }
    return uf_.find(done.at(term.get()));
}

bool
EGraph::merge(ClassId a, ClassId b)
{
    a = uf_.find(a);
    b = uf_.find(b);
    if (a == b) {
        return false;
    }
    const ClassId root = uf_.merge(a, b);
    const ClassId absorbed = (root == a) ? b : a;
    ++union_count_;
    // Canonical ids changed: compacted op-index caches are stale. The
    // journal itself stays valid — absorbed-id entries re-canonicalize to
    // the root, which inherits every operator of both classes.
    ++index_version_;

    // Join analysis data and splice the absorbed class into the root.
    EClass& rc = classes_[root];
    EClass& ac = classes_[absorbed];
    if (!rc.constant.has_value()) {
        rc.constant = ac.constant;
    } else if (ac.constant.has_value()) {
        DIOS_ASSERT(*rc.constant == *ac.constant,
                    "constant analysis disagreement: unsound rewrite?");
    }
    ac.constant.reset();
    splice_tracked(rc.nodes, ac.nodes);
    // The absorbed class's parents are the nodes whose children just
    // went non-canonical.
    pending_.insert(pending_.end(), ac.parents_.begin(), ac.parents_.end());
    splice_tracked(rc.parents_, ac.parents_);
    dirty_ = true;
    modify(root);
    return true;
}

void
EGraph::rebuild()
{
    // egg's rebuild: re-canonicalize each pending node in place. One
    // whose new content another node already owns is congruent to it,
    // so their classes merge, which queues more parents.
    while (!pending_.empty()) {
        const NodeId id = pending_.back();
        pending_.pop_back();
        const NodeRec rec = nodes_[id];
        const auto kids = children_.begin() + rec.first;
        if (std::all_of(kids, kids + rec.arity,
                        [&](ClassId c) { return uf_.find(c) == c; })) {
            continue;
        }
        memo_erase(id, enode_hash(node(id)));
        std::transform(kids, kids + rec.arity, kids,
                       [&](ClassId c) { return uf_.find(c); });
        const ENodeView now = node(id);
        const std::size_t hash = enode_hash(now);
        if (const NodeId owner = memo_find(now, hash); owner == kNoNode) {
            memo_insert(id, hash);
        } else {
            merge(nodes_[owner].cls, rec.cls);
        }
    }
    dirty_ = false;
}

std::optional<ClassId>
EGraph::lookup(ENode node)
{
    node.canonicalize(uf_);
    const NodeId hit = memo_find(node, enode_hash(node));
    if (hit == kNoNode) {
        return std::nullopt;
    }
    return uf_.find(nodes_[hit].cls);
}

std::optional<ClassId>
EGraph::lookup_const(ENode node) const
{
    for (ClassId& c : node.children) {
        c = uf_.find_const(c);
    }
    const NodeId hit = memo_find(node, enode_hash(node));
    if (hit == kNoNode) {
        return std::nullopt;
    }
    return uf_.find_const(nodes_[hit].cls);
}

std::vector<ClassId>
EGraph::class_ids() const
{
    // A class sits at the position of its smallest member id: the order
    // a scan of ids in creation order first reaches it.
    std::vector<ClassId> out;
    out.reserve(num_classes());
    for (ClassId raw = 0; raw < classes_.size(); ++raw) {
        const ClassId id = uf_.find_const(raw);
        if (uf_.min_member(id) == raw) {
            out.push_back(id);
        }
    }
    return out;
}

const std::vector<ClassId>&
EGraph::classes_with_op(Op op) const
{
    DIOS_ASSERT(!dirty_, "classes_with_op() on a dirty e-graph");
    const auto slot = static_cast<std::size_t>(op);
    std::vector<ClassId>& entry = op_index_[slot];
    if (op_index_clean_[slot] == index_version_) {
        return entry;
    }
    // Compact the journal: canonicalize, dedup, and sort by the class's
    // creation ordinal (its smallest member id) so candidates come back
    // in exactly the order a naive class_ids() scan visits them.
    class_mark_.resize(classes_.size(), 0);
    if (++class_stamp_ == 0) {
        std::fill(class_mark_.begin(), class_mark_.end(), 0);
        class_stamp_ = 1;
    }
    const std::uint32_t stamp = class_stamp_;
    std::size_t keep = 0;
    for (const ClassId raw : entry) {
        const ClassId id = uf_.find_const(raw);
        if (class_mark_[id] != stamp) {
            class_mark_[id] = stamp;
            entry[keep++] = id;
        }
    }
    entry.resize(keep);
    std::sort(entry.begin(), entry.end(), [this](ClassId a, ClassId b) {
        return uf_.min_member(a) < uf_.min_member(b);
    });
    op_index_clean_[slot] = index_version_;
    return entry;
}

std::size_t
EGraph::memory_proxy_bytes() const
{
    std::size_t bytes = nodes_.capacity() * sizeof(NodeRec) +
                        children_.capacity() * sizeof(ClassId) +
                        payloads_.capacity() * sizeof(Payload) +
                        classes_.capacity() * sizeof(EClass) + list_bytes_ +
                        pending_.capacity() * sizeof(NodeId) +
                        memo_.capacity() * sizeof(Slot) +
                        uf_.memory_bytes() +
                        class_mark_.capacity() * sizeof(std::uint32_t);
    for (const std::vector<ClassId>& journal : op_index_) {
        bytes += journal.capacity() * sizeof(ClassId);
    }
    return bytes;
}

std::optional<Rational>
EGraph::fold_node(const ENodeView& node) const
{
    auto child_const = [&](std::size_t i) -> std::optional<Rational> {
        return classes_[uf_.find_const(node.children[i])].constant;
    };
    try {
        switch (node.op) {
          case Op::kConst:
            return node.value;
          case Op::kAdd:
          case Op::kSub:
          case Op::kMul:
          case Op::kDiv: {
            const auto a = child_const(0);
            const auto b = child_const(1);
            if (!a || !b) {
                return std::nullopt;
            }
            switch (node.op) {
              case Op::kAdd:
                return *a + *b;
              case Op::kSub:
                return *a - *b;
              case Op::kMul:
                return *a * *b;
              default:
                if (b->is_zero()) {
                    return std::nullopt;
                }
                return *a / *b;
            }
          }
          case Op::kNeg: {
            const auto a = child_const(0);
            return a ? std::optional<Rational>(-*a) : std::nullopt;
          }
          case Op::kSgn: {
            const auto a = child_const(0);
            if (!a) {
                return std::nullopt;
            }
            const int s = a->is_zero() ? 0 : (a->num() < 0 ? -1 : 1);
            return Rational(s);
          }
          case Op::kRecip: {
            const auto a = child_const(0);
            if (!a || a->is_zero()) {
                return std::nullopt;
            }
            return Rational(1) / *a;
          }
          default:
            return std::nullopt;
        }
    } catch (const RationalOverflow&) {
        return std::nullopt;  // sound: simply stop folding
    }
}

void
EGraph::modify(ClassId id)
{
    if (!fold_constants_) {
        return;
    }
    id = uf_.find(id);
    const std::optional<Rational> constant = classes_[id].constant;
    if (!constant.has_value()) {
        return;
    }
    const ENode cn = ENode::make_const(*constant);
    const std::size_t hash = enode_hash(cn);
    if (const NodeId hit = memo_find(cn, hash); hit != kNoNode) {
        if (uf_.find(nodes_[hit].cls) != id) {
            merge(nodes_[hit].cls, id);
        }
        return;
    }
    memo_insert(store_node(cn, id), hash);
    index_op(Op::kConst, id);
}

void
EGraph::check_invariants() const
{
    DIOS_ASSERT(!dirty_, "check_invariants() on a dirty e-graph");
    std::unordered_map<ENode, ClassId, ENodeHash> canonical_nodes;
    const std::vector<ClassId> ids = class_ids();
    std::size_t total = 0;
    std::size_t lists = 0;
    for (const EClass& cls : classes_) {
        lists += cls.nodes.capacity() * sizeof(NodeId) +
                 cls.parents_.capacity() * sizeof(NodeId);
    }
    for (const ClassId id : ids) {
        DIOS_ASSERT(uf_.find_const(id) == id, "class id is not canonical");
        for (const ENodeView raw : class_nodes(id)) {
            ENode node = raw.to_enode();
            for (ClassId& c : node.children) {
                c = uf_.find_const(c);
            }
            const NodeId hit = memo_find(node, enode_hash(node));
            DIOS_ASSERT(hit != kNoNode,
                        "canonical e-node missing from hashcons: " +
                            node.to_string());
            DIOS_ASSERT(uf_.find_const(nodes_[hit].cls) == id,
                        "hashcons points to the wrong class for " +
                            node.to_string());
            auto [it, inserted] = canonical_nodes.try_emplace(node, id);
            if (!inserted) {
                DIOS_ASSERT(it->second == id,
                            "congruence violation: node in two classes: " +
                                node.to_string());
            }
            ++total;
        }
    }
    DIOS_ASSERT(total == num_nodes(), "node counter disagrees with classes");
    DIOS_ASSERT(ids.size() == num_classes(),
                "class counter disagrees with the union-find");
    DIOS_ASSERT(lists == list_bytes_,
                "list byte counter disagrees with the class lists");
    std::size_t entries = 0;
    for (const Slot& s : memo_) {
        if (s.node == kNoNode) {
            continue;
        }
        ++entries;
        const ENodeView key = node(s.node);
        DIOS_ASSERT(s.hash == slot_hash(enode_hash(key)),
                    "hashcons entry filed under another content's hash");
        ENode canonical = key.to_enode();
        for (ClassId& c : canonical.children) {
            c = uf_.find_const(c);
        }
        DIOS_ASSERT(canonical == key.to_enode() ||
                        memo_find(canonical, enode_hash(canonical)) !=
                            kNoNode,
                    "stale hashcons entry without canonical counterpart");
    }
    DIOS_ASSERT(entries == memo_size_, "hashcons size counter is wrong");
}

std::string
EGraph::dump() const
{
    std::ostringstream os;
    for (const ClassId id : class_ids()) {
        const EClass& cls = eclass(id);
        os << "c" << id << ":";
        if (cls.constant) {
            os << " [= " << *cls.constant << "]";
        }
        for (const ENodeView n : class_nodes(id)) {
            os << ' ' << n.to_string();
        }
        os << '\n';
    }
    return os.str();
}

std::string
EGraph::to_dot() const
{
    std::ostringstream os;
    os << "digraph egraph {\n  compound=true;\n  node [shape=record];\n";
    for (const ClassId id : class_ids()) {
        const EClass& cls = eclass(id);
        os << "  subgraph cluster_" << id << " {\n"
           << "    label=\"c" << id;
        if (cls.constant) {
            os << " = " << cls.constant->to_string();
        }
        os << "\";\n";
        std::size_t n = 0;
        for (const ENodeView node : class_nodes(id)) {
            os << "    n" << id << "_" << n++ << " [label=\"";
            os << op_name(node.op);
            if (node.op == Op::kConst) {
                os << ' ' << node.value.to_string();
            }
            if (node.symbol.valid()) {
                os << ' ' << node.symbol.str();
            }
            if (node.op == Op::kGet) {
                os << ' ' << node.index;
            }
            os << "\"];\n";
        }
        os << "  }\n";
    }
    // Child edges: from each node to the first node of the child class
    // (lhead pins the arrow on the cluster border).
    for (const ClassId id : class_ids()) {
        std::size_t n = 0;
        for (const ENodeView node : class_nodes(id)) {
            for (const ClassId raw_child : node.children) {
                const ClassId child = uf_.find_const(raw_child);
                os << "  n" << id << "_" << n << " -> n" << child
                   << "_0 [lhead=cluster_" << child << "];\n";
            }
            ++n;
        }
    }
    os << "}\n";
    return os.str();
}

TermRef
enode_to_term(const ENodeView& node, const std::vector<TermRef>& kids)
{
    switch (node.op) {
      case Op::kConst:
        return Term::constant(node.value);
      case Op::kSymbol:
        return Term::variable(node.symbol);
      case Op::kGet:
        return Term::get(node.symbol, node.index);
      case Op::kCall:
        return Term::call(node.symbol, kids);
      default:
        return Term::make(node.op, kids);
    }
}

}  // namespace diospyros
