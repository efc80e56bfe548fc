#include "logic/nnf_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace reason {
namespace logic {

std::string
toC2dFormat(const DnnfGraph &graph)
{
    // c2d's root is the *last* node, and readers expect every node to
    // matter; emit only nodes reachable from the root, renumbered in
    // topological order (the compiler's hash-consed singletons may
    // leave unused True/False/Lit nodes behind).
    std::vector<bool> reachable(graph.numNodes(), false);
    reachable[graph.root()] = true;
    for (size_t i = graph.numNodes(); i-- > 0;) {
        if (!reachable[i])
            continue;
        for (NnfId c : graph.node(NnfId(i)).children)
            reachable[c] = true;
    }
    std::vector<NnfId> renumber(graph.numNodes(), kInvalidNnf);
    size_t kept = 0, edges = 0;
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        if (!reachable[i])
            continue;
        renumber[i] = NnfId(kept++);
        edges += graph.node(NnfId(i)).children.size();
    }

    std::ostringstream os;
    os << "nnf " << kept << " " << edges << " " << graph.numVars()
       << "\n";
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        if (!reachable[i])
            continue;
        const NnfNode &node = graph.node(NnfId(i));
        switch (node.type) {
          case NnfType::True:
            os << "A 0\n";
            break;
          case NnfType::False:
            os << "O 0 0\n";
            break;
          case NnfType::Lit:
            os << "L " << node.lit.toDimacs() << "\n";
            break;
          case NnfType::And:
            os << "A " << node.children.size();
            for (NnfId c : node.children)
                os << " " << renumber[c];
            os << "\n";
            break;
          case NnfType::Or:
            // c2d records the decision variable 1-based (0 = none).
            os << "O " << (node.decisionVar + 1) << " "
               << node.children.size();
            for (NnfId c : node.children)
                os << " " << renumber[c];
            os << "\n";
            break;
        }
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Streaming pull parser
// ---------------------------------------------------------------------------

namespace {

/** Id-domain caps checked against the declared header counts before
 *  any use: node ids must fit NnfId with kInvalidNnf reserved, edge
 *  counts must fit the 32-bit CSR offsets of the flat consumers, and
 *  variables must fit the Lit packing (2*var+polarity in 32 bits). */
constexpr uint64_t kMaxDeclaredNodes = 0xfffffffeull;
constexpr uint64_t kMaxDeclaredEdges = 0xfffffffeull;
constexpr uint64_t kMaxDeclaredVars = uint64_t(kMaxDimacsVar);

/** Upper bound on any reservation made from a *declared* count; real
 *  growth beyond this is paid only as actual tokens arrive, so a
 *  hostile header cannot trigger an oversized allocation. */
constexpr size_t kMaxUpfrontReserve = size_t(1) << 16;

} // namespace

bool
NnfStreamParser::fail(size_t line, std::string message)
{
    if (!failed_) {
        failed_ = true;
        error_.message = std::move(message);
        error_.line = line;
    }
    return false;
}

bool
NnfStreamParser::nextLine()
{
    while (std::getline(in_, line_)) {
        ++lineNo_;
        linePos_ = 0;
        if (!line_.empty() && line_.back() == '\r')
            line_.pop_back(); // tolerate CRLF files
        if (line_.find_first_not_of(" \t") != std::string::npos)
            return true; // skip blank lines
    }
    return false;
}

bool
NnfStreamParser::nextToken(std::string_view *out)
{
    size_t b = line_.find_first_not_of(" \t", linePos_);
    if (b == std::string::npos)
        return false;
    size_t e = line_.find_first_of(" \t", b);
    if (e == std::string::npos)
        e = line_.size();
    *out = std::string_view(line_).substr(b, e - b);
    linePos_ = e;
    return true;
}

bool
NnfStreamParser::parseInt(int64_t *out, const char *what)
{
    std::string_view tok;
    if (!nextToken(&tok))
        return fail(lineNo_,
                    std::string("truncated line: missing ") + what);
    std::string buf(tok);
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(buf.c_str(), &end, 10);
    if (errno == ERANGE || end != buf.c_str() + buf.size())
        return fail(lineNo_, "bad integer '" + buf + "' for " + what);
    *out = v;
    return true;
}

bool
NnfStreamParser::parseCount(uint64_t *out, const char *what)
{
    int64_t v = 0;
    if (!parseInt(&v, what))
        return false;
    if (v < 0)
        return fail(lineNo_, std::string("negative ") + what);
    *out = uint64_t(v);
    return true;
}

bool
NnfStreamParser::readChildren(size_t count)
{
    children_.clear();
    // The declared arity is *not* trusted for the reservation; the
    // buffer grows only as actual child tokens arrive, so a huge
    // arity on a truncated line fails cleanly instead of allocating.
    children_.reserve(std::min(count, kMaxUpfrontReserve));
    for (size_t k = 0; k < count; ++k) {
        int64_t v = 0;
        if (!parseInt(&v, "child reference"))
            return false;
        if (v < 0 || uint64_t(v) >= nodesSeen_)
            return fail(lineNo_,
                        "bad child reference " + std::to_string(v) +
                            " in node " + std::to_string(nodesSeen_) +
                            " (children must reference earlier nodes)");
        children_.push_back(NnfId(v));
    }
    return true;
}

NnfStreamParser::NnfStreamParser(std::istream &in)
    : in_(in)
{
    if (!nextLine()) {
        fail(lineNo_, "missing 'nnf' header");
        return;
    }
    std::string_view tag;
    if (!nextToken(&tag) || tag != "nnf") {
        fail(lineNo_, "missing 'nnf' header");
        return;
    }
    uint64_t nodes = 0, edges = 0, vars = 0;
    if (!parseCount(&nodes, "header node count") ||
        !parseCount(&edges, "header edge count") ||
        !parseCount(&vars, "header variable count"))
        return;
    if (nodes > kMaxDeclaredNodes) {
        fail(lineNo_, "declared node count " + std::to_string(nodes) +
                          " overflows the node id domain");
        return;
    }
    if (edges > kMaxDeclaredEdges) {
        fail(lineNo_, "declared edge count " + std::to_string(edges) +
                          " overflows the edge id domain");
        return;
    }
    if (vars > kMaxDeclaredVars) {
        fail(lineNo_, "declared variable count " + std::to_string(vars) +
                          " overflows the literal domain");
        return;
    }
    std::string_view extra;
    if (nextToken(&extra)) {
        fail(lineNo_, "trailing tokens after the 'nnf' header");
        return;
    }
    header_.numNodes = nodes;
    header_.numEdges = edges;
    header_.numVars = uint32_t(vars);
    headerOk_ = true;
}

NnfStreamParser::Status
NnfStreamParser::next(Node *out)
{
    if (failed_)
        return Status::Error;
    if (!nextLine()) {
        if (nodesSeen_ != header_.numNodes) {
            fail(lineNo_,
                 "header declared " + std::to_string(header_.numNodes) +
                     " nodes, found " + std::to_string(nodesSeen_));
            return Status::Error;
        }
        if (edgesSeen_ != header_.numEdges) {
            fail(lineNo_,
                 "header declared " + std::to_string(header_.numEdges) +
                     " edges, found " + std::to_string(edgesSeen_));
            return Status::Error;
        }
        if (nodesSeen_ == 0) {
            fail(lineNo_, "empty graph");
            return Status::Error;
        }
        return Status::End;
    }
    if (nodesSeen_ == header_.numNodes) {
        fail(lineNo_, "more nodes than the declared " +
                          std::to_string(header_.numNodes));
        return Status::Error;
    }

    std::string_view tag;
    nextToken(&tag); // the line is non-blank, so this succeeds
    Node node;
    if (tag == "L") {
        int64_t d = 0;
        if (!parseInt(&d, "literal"))
            return Status::Error;
        if (d == 0) {
            fail(lineNo_, "bad literal line: literal 0");
            return Status::Error;
        }
        // Range check before negating so INT64_MIN cannot overflow.
        if (d > int64_t(header_.numVars) ||
            d < -int64_t(header_.numVars)) {
            fail(lineNo_,
                 "literal variable " + std::to_string(d) +
                     " out of the declared " +
                     std::to_string(header_.numVars));
            return Status::Error;
        }
        node.type = NnfType::Lit;
        node.lit = Lit::fromDimacs(d);
    } else if (tag == "A") {
        uint64_t k = 0;
        if (!parseCount(&k, "conjunction arity"))
            return Status::Error;
        if (k == 0) {
            node.type = NnfType::True;
        } else {
            if (k > header_.numEdges - edgesSeen_) {
                fail(lineNo_,
                     "conjunction arity " + std::to_string(k) +
                         " exceeds the remaining declared edge budget");
                return Status::Error;
            }
            if (!readChildren(size_t(k)))
                return Status::Error;
            edgesSeen_ += k;
            node.type = NnfType::And;
            node.children = children_;
        }
    } else if (tag == "O") {
        int64_t decision = 0;
        uint64_t k = 0;
        if (!parseInt(&decision, "decision variable"))
            return Status::Error;
        if (decision < 0) {
            fail(lineNo_, "bad disjunction line: negative decision");
            return Status::Error;
        }
        if (!parseCount(&k, "disjunction arity"))
            return Status::Error;
        if (k == 0) {
            node.type = NnfType::False;
        } else {
            if (k != 2) {
                fail(lineNo_, "decision Or must have two children, got " +
                                  std::to_string(k));
                return Status::Error;
            }
            if (decision == 0) {
                fail(lineNo_,
                     "nonempty Or without a decision variable");
                return Status::Error;
            }
            if (uint64_t(decision) > header_.numVars) {
                fail(lineNo_,
                     "decision variable " + std::to_string(decision) +
                         " out of the declared " +
                         std::to_string(header_.numVars));
                return Status::Error;
            }
            if (2 > header_.numEdges - edgesSeen_) {
                fail(lineNo_,
                     "disjunction exceeds the declared edge budget");
                return Status::Error;
            }
            if (!readChildren(2))
                return Status::Error;
            edgesSeen_ += 2;
            node.type = NnfType::Or;
            node.decisionVar = uint32_t(decision - 1);
            node.children = children_;
        }
    } else {
        fail(lineNo_,
             "unknown node tag '" + std::string(tag) + "'");
        return Status::Error;
    }

    std::string_view extra;
    if (nextToken(&extra)) {
        fail(lineNo_, "trailing tokens after node " +
                          std::to_string(nodesSeen_));
        return Status::Error;
    }
    ++nodesSeen_;
    *out = node;
    return Status::Node;
}

// ---------------------------------------------------------------------------
// Whole-graph loads
// ---------------------------------------------------------------------------

DnnfGraph
parseC2dFormat(const std::string &text, NnfError *err)
{
    *err = NnfError{};
    std::istringstream is(text);
    NnfStreamParser parser(is);
    std::vector<NnfNode> nodes;
    std::vector<size_t> nodeLine;

    NnfStreamParser::Node item;
    for (;;) {
        NnfStreamParser::Status st = parser.next(&item);
        if (st == NnfStreamParser::Status::Error) {
            *err = parser.error();
            return DnnfGraph();
        }
        if (st == NnfStreamParser::Status::End)
            break;
        NnfNode node;
        node.type = item.type;
        node.lit = item.lit;
        node.decisionVar = item.decisionVar;
        node.children.assign(item.children.begin(),
                             item.children.end());
        if (nodes.empty()) {
            size_t reserve = std::min(size_t(parser.header().numNodes),
                                      kMaxUpfrontReserve);
            nodes.reserve(reserve);
            nodeLine.reserve(reserve);
        }
        nodeLine.push_back(parser.line());
        nodes.push_back(std::move(node));
    }

    // fromNodes() panic()s on non-decomposable input (an internal
    // invariant for compiler-produced graphs), so vet And scopes here
    // and turn the violation into a clean error instead.
    std::vector<std::vector<uint32_t>> scope(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        const NnfNode &node = nodes[i];
        switch (node.type) {
          case NnfType::True:
          case NnfType::False:
            break;
          case NnfType::Lit:
            scope[i].push_back(node.lit.var());
            break;
          case NnfType::And:
          case NnfType::Or: {
            size_t total = 0;
            for (NnfId c : node.children) {
                scope[i].insert(scope[i].end(), scope[c].begin(),
                                scope[c].end());
                total += scope[c].size();
            }
            std::sort(scope[i].begin(), scope[i].end());
            scope[i].erase(
                std::unique(scope[i].begin(), scope[i].end()),
                scope[i].end());
            if (node.type == NnfType::And && scope[i].size() != total) {
                err->message =
                    "And children must have pairwise disjoint scopes";
                err->line = nodeLine[i];
                return DnnfGraph();
            }
            break;
          }
        }
    }

    NnfId root = NnfId(nodes.size() - 1); // c2d: the last node is the root
    return DnnfGraph::fromNodes(std::move(nodes), root,
                                parser.header().numVars);
}

} // namespace logic
} // namespace reason
