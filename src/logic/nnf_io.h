/**
 * @file
 * d-DNNF serialization in the standard c2d `.nnf` format, the
 * interchange format of the knowledge-compilation ecosystem (c2d,
 * Dsharp, d4, miniC2D), so compiled knowledge bases can be exchanged
 * with external tools.
 *
 * Format (one node per line, children refer to earlier lines):
 *
 *     nnf <numNodes> <numEdges> <numVars>
 *     L <dimacs-literal>
 *     A <k> <child...>            (conjunction; A 0 is TRUE)
 *     O <decision-var> <k> <child...>   (disjunction; O 0 0 is FALSE)
 *
 * Reading is built on NnfStreamParser, a line-oriented pull parser
 * that yields one node at a time without materializing a pointer
 * graph, so consumers can stream arbitrarily large files straight
 * into flat CSR arrays (pc::streamNnfToFlat).  The parser is
 * malformed-tolerant in the wire-decoder sense (sys/wire.h): every
 * violation — truncated lines, dangling or forward (cyclic) child
 * references, out-of-range literals, counts that disagree with the
 * header, declared sizes large enough to wrap size computations —
 * produces a clean NnfError with the offending 1-based line number,
 * never a crash, and the parser never trusts a declared count for an
 * allocation before seeing the bytes that back it.
 *
 * parseC2dFormat() wraps the same parser into whole-graph loads and
 * reports errors through NnfError.
 */

#ifndef REASON_LOGIC_NNF_IO_H
#define REASON_LOGIC_NNF_IO_H

#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <vector>

#include "logic/knowledge.h"

namespace reason {
namespace logic {

/** Serialize a compiled d-DNNF to c2d text (reachable nodes only,
 *  renumbered topologically, root last). */
std::string toC2dFormat(const DnnfGraph &graph);

/** Outcome of a tolerant `.nnf` parse; ok() iff message is empty. */
struct NnfError
{
    /** Human-readable description of the first violation; empty = ok. */
    std::string message;
    /** 1-based line of the violation (0 when input ended early). */
    size_t line = 0;

    bool ok() const { return message.empty(); }
};

/** Declared `.nnf` header counts. */
struct NnfHeader
{
    uint64_t numNodes = 0;
    uint64_t numEdges = 0;
    uint32_t numVars = 0;
};

/**
 * Line-oriented streaming `.nnf` pull parser.
 *
 * The constructor consumes and validates the header; next() then
 * yields one node per call in file order.  Child ids are the file's
 * own 0-based numbering and always reference earlier nodes (forward
 * and self references are rejected, so cycles cannot be expressed).
 * The children span aliases an internal buffer valid until the next
 * next() call — peak memory is one line of children, not the graph.
 *
 * Hardening contract: any malformed input moves the parser to the
 * Error state with a message and line number.  Declared header counts
 * are bounds-checked against the id domains (numNodes/numEdges below
 * 2^32-1, numVars below 2^31) before any use, and per-node arities are
 * checked against the remaining declared edge budget before any
 * reservation, so hostile counts cannot wrap a size computation or
 * trigger an oversized allocation.
 */
class NnfStreamParser
{
  public:
    enum class Status
    {
        Node, ///< *out holds the next node
        End,  ///< all declared nodes read and counts check out
        Error ///< malformed input; see error()
    };

    /** One parsed node.  `children` is valid until the next next(). */
    struct Node
    {
        NnfType type = NnfType::True;
        Lit lit;                          ///< Lit nodes
        uint32_t decisionVar = 0;         ///< Or nodes
        std::span<const NnfId> children;  ///< And/Or nodes
    };

    /** Reads and validates the header; on failure the first next()
     *  reports the error. */
    explicit NnfStreamParser(std::istream &in);

    Status next(Node *out);

    const NnfHeader &header() const { return header_; }
    const NnfError &error() const { return error_; }
    /** Nodes successfully yielded so far (the next node's id). */
    size_t nodesSeen() const { return nodesSeen_; }
    /** 1-based line number of the most recently read line. */
    size_t line() const { return lineNo_; }

  private:
    bool fail(size_t line, std::string message);
    bool nextLine();
    bool nextToken(std::string_view *out);
    bool parseInt(int64_t *out, const char *what);
    bool parseCount(uint64_t *out, const char *what);
    bool readChildren(size_t count);

    std::istream &in_;
    NnfHeader header_;
    NnfError error_;
    bool failed_ = false;
    bool headerOk_ = false;
    std::string line_;
    size_t linePos_ = 0;
    size_t lineNo_ = 0;
    size_t nodesSeen_ = 0;
    uint64_t edgesSeen_ = 0;
    std::vector<NnfId> children_;
};

/**
 * Tolerant whole-text parse: on success returns the graph (validated,
 * including decomposability of And nodes) and leaves *err ok; on any
 * violation returns an empty graph and fills *err with the message
 * and line.  Never crashes, whatever the input.  `num_vars` of the
 * resulting graph is taken from the header.
 */
DnnfGraph parseC2dFormat(const std::string &text, NnfError *err);

} // namespace logic
} // namespace reason

#endif // REASON_LOGIC_NNF_IO_H
