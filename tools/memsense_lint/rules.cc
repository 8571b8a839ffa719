#include "rules.hh"

#include <algorithm>
#include <cctype>

namespace memsense::lint
{

namespace
{

const Token kNullTok{TokKind::Punct, "", 0};

const Token &
at(const std::vector<Token> &toks, std::size_t i)
{
    return i < toks.size() ? toks[i] : kNullTok;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

std::string
lowercase(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

/** Find the index of the matching closer for the opener at @p open. */
std::size_t
matchDelim(const std::vector<Token> &toks, std::size_t open,
           const char *opener, const char *closer)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], opener))
            ++depth;
        else if (isPunct(toks[i], closer) && --depth == 0)
            return i;
    }
    return toks.size();
}

bool
contains(const std::set<std::string> &set, const std::string &s)
{
    return set.count(s) != 0;
}

/** Token ranges (begin, end) of loop bodies for @p keywords. */
std::vector<std::pair<std::size_t, std::size_t>>
loopBodies(const std::vector<Token> &toks,
           const std::set<std::string> &keywords)
{
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !contains(keywords, toks[i].text) ||
            !isPunct(at(toks, i + 1), "("))
            continue;
        std::size_t head_end = matchDelim(toks, i + 1, "(", ")");
        if (head_end >= toks.size())
            continue;
        std::size_t body_begin = head_end + 1;
        std::size_t body_end;
        if (isPunct(at(toks, body_begin), "{")) {
            body_end = matchDelim(toks, body_begin, "{", "}");
        } else {
            body_end = body_begin;
            while (body_end < toks.size() && !isPunct(toks[body_end], ";"))
                ++body_end;
        }
        bodies.emplace_back(body_begin, body_end);
    }
    return bodies;
}

/** Token ranges (begin, end) of every for-loop body in the file. */
std::vector<std::pair<std::size_t, std::size_t>>
forLoopBodies(const std::vector<Token> &toks)
{
    static const std::set<std::string> kw = {"for"};
    return loopBodies(toks, kw);
}

bool
insideAny(const std::vector<std::pair<std::size_t, std::size_t>> &bodies,
          std::size_t i)
{
    for (const auto &[b, e] : bodies) {
        if (i > b && i < e)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// no-nondeterminism
// ---------------------------------------------------------------------

void
checkNondeterminism(const FileContext &ctx, std::vector<Finding> &out)
{
    if (ctx.rngExempt)
        return;
    // Banned when called: rand() and friends, wall-clock reads.
    static const std::set<std::string> banned_calls = {
        "rand",    "srand",   "rand_r",       "drand48", "lrand48",
        "mrand48", "random",  "gettimeofday", "time",    "clock",
        "getpid",
    };
    // Banned on sight: entropy / wall-clock sources by name.
    static const std::set<std::string> banned_idents = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock",
    };
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        const Token &prev = at(toks, i - 1);
        // Member access (cfg.time, s.clock) is not the libc call.
        if (isPunct(prev, ".") || isPunct(prev, "->"))
            continue;
        if (contains(banned_idents, t.text)) {
            out.push_back({ctx.path, t.line, "no-nondeterminism",
                           "'" + t.text +
                               "' is a nondeterminism source; all "
                               "randomness must flow through util/rng "
                               "(memsense::Rng) so runs are "
                               "seed-reproducible"});
            continue;
        }
        if (contains(banned_calls, t.text) && isPunct(at(toks, i + 1), "(")) {
            out.push_back({ctx.path, t.line, "no-nondeterminism",
                           "call to '" + t.text +
                               "()' is banned; derive all randomness "
                               "and timing from the seeded util/rng / "
                               "simulated clock so results are "
                               "reproducible"});
        }
    }
}

// ---------------------------------------------------------------------
// float-equal
// ---------------------------------------------------------------------

bool
isFloatish(const FileContext &ctx, const Token &t)
{
    if (t.kind == TokKind::Number)
        return isFloatLiteral(t.text);
    if (t.kind == TokKind::Ident)
        return ctx.floatIdents.count(t.text) != 0;
    return false;
}

void
checkFloatEqual(const FileContext &ctx, std::vector<Finding> &out)
{
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Punct || (t.text != "==" && t.text != "!="))
            continue;
        if (isFloatish(ctx, at(toks, i - 1)) ||
            isFloatish(ctx, at(toks, i + 1))) {
            out.push_back({ctx.path, t.line, "float-equal",
                           "floating-point '" + t.text +
                               "' comparison; use a tolerance, or "
                               "annotate an exact-sentinel check with "
                               "allow(float-equal) and a reason"});
        }
    }
}

// ---------------------------------------------------------------------
// c-style-cast
// ---------------------------------------------------------------------

const std::set<std::string> &
arithTypeTokens()
{
    static const std::set<std::string> set = {
        "int",      "long",     "short",    "unsigned",  "signed",
        "float",    "double",   "char",     "size_t",    "ssize_t",
        "ptrdiff_t", "int8_t",  "int16_t",  "int32_t",   "int64_t",
        "uint8_t",  "uint16_t", "uint32_t", "uint64_t",  "uintptr_t",
        "intptr_t", "Picos",    "Addr",
    };
    return set;
}

void
checkCStyleCast(const FileContext &ctx, std::vector<Finding> &out)
{
    const auto &toks = ctx.toks;
    // Prev-identifiers after which "(type)" really is a cast.
    static const std::set<std::string> cast_prev_kw = {
        "return", "throw", "else", "do", "co_return", "co_yield",
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isPunct(toks[i], "("))
            continue;
        const Token &prev = at(toks, i - 1);
        // After a name, ')', ']', or '>' the paren is a call, a
        // declarator, or a template instantiation — not a cast.
        if (prev.kind == TokKind::Number ||
            isPunct(prev, ")") || isPunct(prev, "]") || isPunct(prev, ">"))
            continue;
        if (prev.kind == TokKind::Ident && !contains(cast_prev_kw, prev.text))
            continue;

        // The parenthesized tokens must form a pure arithmetic type
        // name: idents from the arith set plus std / ::.
        std::size_t j = i + 1;
        int arith = 0;
        bool pure = true;
        for (; j < toks.size() && !isPunct(toks[j], ")"); ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "::") || isIdent(t, "std") || isIdent(t, "const"))
                continue;
            if (t.kind == TokKind::Ident &&
                contains(arithTypeTokens(), t.text)) {
                ++arith;
                continue;
            }
            pure = false;
            break;
        }
        if (!pure || arith == 0 || j >= toks.size() || j == i + 1)
            continue;
        const Token &next = at(toks, j + 1);
        bool operand = next.kind == TokKind::Ident ||
                       next.kind == TokKind::Number ||
                       isPunct(next, "(") || isPunct(next, "-") ||
                       isPunct(next, "+") || isPunct(next, "!") ||
                       isPunct(next, "~") || isPunct(next, "*") ||
                       isPunct(next, "&");
        if (!operand)
            continue;
        out.push_back({ctx.path, toks[i].line, "c-style-cast",
                       "C-style cast; narrowing must be explicit — use "
                       "static_cast<...> (and clamp double->integer "
                       "conversions)"});
    }
}

// ---------------------------------------------------------------------
// unclamped-double-to-int
// ---------------------------------------------------------------------

void
checkUnclampedCast(const FileContext &ctx, std::vector<Finding> &out)
{
    static const std::set<std::string> integral = {
        "int",      "long",     "short",    "unsigned", "signed",
        "char",     "size_t",   "ssize_t",  "ptrdiff_t", "int8_t",
        "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
        "uint32_t", "uint64_t", "uintptr_t", "intptr_t", "Picos",
        "Addr",
    };
    // Visible range control inside the cast argument.
    static const std::set<std::string> clampers = {
        "clamp", "min",   "max",   "lround",    "llround", "lrint",
        "llrint", "round", "floor", "ceil",     "trunc",   "nearbyint",
        "rint",  "abs",   "fmod",
    };
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static_cast") || !isPunct(at(toks, i + 1), "<"))
            continue;
        std::size_t close = matchDelim(toks, i + 1, "<", ">");
        if (close >= toks.size() || !isPunct(at(toks, close + 1), "("))
            continue;

        bool is_integral = false;
        bool pure = true;
        for (std::size_t j = i + 2; j < close; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "::") || isIdent(t, "std") || isIdent(t, "const"))
                continue;
            if (t.kind == TokKind::Ident && contains(integral, t.text)) {
                is_integral = true;
                continue;
            }
            pure = false;
            break;
        }
        if (!pure || !is_integral)
            continue;

        std::size_t arg_end = matchDelim(toks, close + 1, "(", ")");
        bool floatish = false;
        bool clamped = false;
        for (std::size_t j = close + 2; j < arg_end; ++j) {
            if (isFloatish(ctx, toks[j]))
                floatish = true;
            if (toks[j].kind == TokKind::Ident &&
                contains(clampers, toks[j].text))
                clamped = true;
        }
        if (floatish && !clamped) {
            out.push_back(
                {ctx.path, toks[i].line, "unclamped-double-to-int",
                 "double->integer static_cast without visible range "
                 "control; an out-of-range double is undefined "
                 "behaviour — clamp in the double domain first "
                 "(std::clamp/min/max/lround), or annotate with "
                 "allow(unclamped-double-to-int) and the reason the "
                 "value is already bounded"});
        }
    }
}

// ---------------------------------------------------------------------
// mutable-global-state
// ---------------------------------------------------------------------

void
checkMutableGlobal(const FileContext &ctx, std::vector<Finding> &out)
{
    if (ctx.logExempt)
        return;
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static"))
            continue;
        // Walk the declaration: a '(' before ';'/'='/'{' means a
        // function; const/constexpr/thread_local makes it safe.
        bool safe = false;
        bool function = false;
        std::size_t limit = std::min(toks.size(), i + 48);
        for (std::size_t j = i + 1; j < limit; ++j) {
            const Token &t = toks[j];
            if (isIdent(t, "const") || isIdent(t, "constexpr") ||
                isIdent(t, "constinit") || isIdent(t, "thread_local")) {
                safe = true;
                break;
            }
            if (isPunct(t, "(")) {
                function = true;
                break;
            }
            if (isPunct(t, ";") || isPunct(t, "=") || isPunct(t, "{"))
                break;
        }
        if (safe || function)
            continue;
        out.push_back(
            {ctx.path, toks[i].line, "mutable-global-state",
             "mutable static/global state; sweep jobs must share no "
             "mutable state to stay seed-deterministic — make it "
             "const/constexpr, pass it explicitly, or move it behind "
             "util/log-style synchronized ownership"});
    }
}

// ---------------------------------------------------------------------
// serial-grid-loop
// ---------------------------------------------------------------------

void
checkSerialGridLoop(const FileContext &ctx, std::vector<Finding> &out)
{
    if (!ctx.inBench)
        return;
    // Runner-level entry points that a bench grid loop must not call
    // directly; route the grid through ParallelExecutor::mapOrdered or
    // the measure:: experiment drivers instead.
    static const std::set<std::string> runner_calls = {
        "runObservation", "WorkloadRun",
    };
    const auto &toks = ctx.toks;
    auto bodies = forLoopBodies(toks);

    std::set<int> flagged_lines;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident || !contains(runner_calls, t.text))
            continue;
        if (!insideAny(bodies, i) || !flagged_lines.insert(t.line).second)
            continue;
        out.push_back(
            {ctx.path, t.line, "serial-grid-loop",
             "'" + t.text +
                 "' called from a hand-rolled grid loop runs the "
                 "sweep serially and ignores --jobs; build the grid "
                 "as a job vector and run it through "
                 "measure::ParallelExecutor::mapOrdered (or a "
                 "measure:: experiment driver)"});
    }
}

// ---------------------------------------------------------------------
// no-untraced-sweep-loop
// ---------------------------------------------------------------------

void
checkUntracedSweepLoop(const FileContext &ctx, std::vector<Finding> &out)
{
    if (!ctx.inBench)
        return;
    // Sweep-engine entry points a bench driver can hand a grid to.
    // Each runs many jobs, so an untimed call leaves the dominant
    // phase of the run invisible to the metrics artifact.
    static const std::set<std::string> sweep_calls = {
        "mapOrdered",
        "mapOrderedResilient",
        "mapIndicesResilient",
        "mapOrderedResilientCheckpointed",
        "characterizeMany",
        "characterizeAll",
        "sweepLoadedLatency",
        "sweepLoadedLatencyFamily",
        "captureTimeSeriesBatch",
    };
    const auto &toks = ctx.toks;
    bool observed = false;
    for (const Token &t : toks) {
        if (t.kind == TokKind::Ident &&
            (t.text == "MS_TRACE_SPAN" || t.text == "PhaseTimer")) {
            observed = true;
            break;
        }
    }
    if (observed)
        return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident || !contains(sweep_calls, t.text) ||
            !isPunct(at(toks, i + 1), "("))
            continue;
        out.push_back(
            {ctx.path, t.line, "no-untraced-sweep-loop",
             "'" + t.text +
                 "' runs a sweep but the file declares no "
                 "observability scope; wrap the sweep in a "
                 "measure::PhaseTimer (or MS_TRACE_SPAN) so --metrics "
                 "runs report where the wall-clock went"});
        return; // advisory: once per file is enough
    }
}

// ---------------------------------------------------------------------
// no-uncached-batch-solve
// ---------------------------------------------------------------------

void
checkUncachedBatchSolve(const FileContext &ctx, std::vector<Finding> &out)
{
    if (!ctx.inBench)
        return;
    const auto &toks = ctx.toks;
    // A file that mentions the memoizing evaluator has already routed
    // (some of) its solves through the cache; stay quiet rather than
    // guess which call sites remain cold.
    for (const Token &t : toks) {
        if (isIdent(t, "Evaluator"))
            return;
    }
    auto bodies = forLoopBodies(toks);
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!isIdent(t, "solve") || !isPunct(at(toks, i + 1), "("))
            continue;
        const Token &prev = at(toks, i - 1);
        // Only member calls (solver.solve / engine->solve): a local
        // helper named solve() is not the analytic fixed point.
        if (!isPunct(prev, ".") && !isPunct(prev, "->"))
            continue;
        if (!insideAny(bodies, i))
            continue;
        out.push_back(
            {ctx.path, t.line, "no-uncached-batch-solve",
             "'.solve()' inside a hand-rolled grid loop re-derives "
             "every operating point from scratch; route the batch "
             "through serve::Evaluator so revisited points are served "
             "from the memoizing cache, or annotate with "
             "allow(no-uncached-batch-solve) and the reason the grid "
             "never repeats a point"});
        return; // advisory: once per file is enough
    }
}

// ---------------------------------------------------------------------
// no-hot-loop-alloc
// ---------------------------------------------------------------------

void
checkHotLoopAlloc(const FileContext &ctx, std::vector<Finding> &out)
{
    if (!ctx.inHotPath)
        return;
    // Container growth that may reallocate on the iteration that
    // crosses capacity. pop_back/clear shrink in place and stay legal.
    static const std::set<std::string> growth_calls = {
        "push_back", "emplace_back", "resize",
    };
    static const std::set<std::string> loop_kw = {"for", "while"};
    const auto &toks = ctx.toks;
    auto bodies = loopBodies(toks, loop_kw);
    if (bodies.empty())
        return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident || !insideAny(bodies, i))
            continue;
        if (t.text == "new") {
            out.push_back(
                {ctx.path, t.line, "no-hot-loop-alloc",
                 "'new' inside a loop on a simulator/serving hot path "
                 "allocates per iteration; hoist the allocation out of "
                 "the loop or bump-allocate from util::Arena, or "
                 "annotate with allow(no-hot-loop-alloc) and the "
                 "reason the loop is cold"});
            continue;
        }
        if (contains(growth_calls, t.text) &&
            (isPunct(at(toks, i - 1), ".") ||
             isPunct(at(toks, i - 1), "->")) &&
            isPunct(at(toks, i + 1), "(")) {
            out.push_back(
                {ctx.path, t.line, "no-hot-loop-alloc",
                 "'" + t.text +
                     "' inside a loop on a simulator/serving hot path "
                     "can reallocate per iteration; reserve() the "
                     "capacity outside the loop (then annotate with "
                     "allow(no-hot-loop-alloc) and where the bound "
                     "comes from), or hoist the growth out of the "
                     "loop"});
            continue;
        }
        // A std::string declared (constructed) per iteration heap-
        // allocates once it outgrows the SSO buffer; so does a
        // per-iteration to_string(). Member access before "string"
        // (x.string) is not a declaration.
        const bool string_decl =
            t.text == "string" && at(toks, i + 1).kind == TokKind::Ident &&
            !isPunct(at(toks, i - 1), ".") && !isPunct(at(toks, i - 1), "->");
        const bool to_string_call =
            t.text == "to_string" && isPunct(at(toks, i + 1), "(");
        if (string_decl || to_string_call) {
            out.push_back(
                {ctx.path, t.line, "no-hot-loop-alloc",
                 "std::string " +
                     std::string(string_decl ? "constructed"
                                             : "built by to_string()") +
                     " inside a loop on a simulator/serving hot path "
                     "mallocs past the SSO limit; hoist a reused "
                     "buffer out of the loop (clear() per iteration), "
                     "or annotate with allow(no-hot-loop-alloc) and "
                     "the reason the loop is cold"});
        }
    }
}

// ---------------------------------------------------------------------
// unit-suffix
// ---------------------------------------------------------------------

void
checkUnitSuffix(const FileContext &ctx, std::vector<Finding> &out)
{
    // Words that tie a quantity to its unit (or mark it dimensionless).
    static const std::set<std::string> unit_words = {
        "ns",    "us",      "ms",    "ps",     "picos",  "sec",
        "secs",  "seconds", "cycle", "cycles", "cyc",    "ghz",
        "mhz",   "khz",     "hz",    "gbps",   "mbps",   "kbps",
        "bps",   "byte",    "bytes", "pct",    "percent", "ratio",
        "frac",  "fraction", "factor", "norm", "rel",     "relative",
        "cpi", // cycles/instruction is a unit of its own (Eq. 1)
    };
    static const char *const quantities[] = {"latency", "bandwidth",
                                             "delay", "penalty"};
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "double") && !isIdent(toks[i], "float"))
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() &&
               (isIdent(toks[j], "const") || isPunct(toks[j], "&") ||
                isPunct(toks[j], "*")))
            ++j;
        const Token &name = at(toks, j);
        if (name.kind != TokKind::Ident)
            continue;
        // Functions declare their unit in the return-value name too,
        // but renaming call sites is out of scope: variables only.
        if (isPunct(at(toks, j + 1), "("))
            continue;
        std::string lower = lowercase(name.text);
        bool quantity = false;
        for (const char *q : quantities) {
            if (lower.find(q) != std::string::npos) {
                quantity = true;
                break;
            }
        }
        if (!quantity)
            continue;
        bool suffixed = false;
        for (const std::string &w : identWords(name.text)) {
            if (contains(unit_words, w)) {
                suffixed = true;
                break;
            }
        }
        if (suffixed)
            continue;
        out.push_back(
            {ctx.path, name.line, "unit-suffix",
             "'" + name.text +
                 "' holds a latency/bandwidth quantity but names no "
                 "unit; suffix it (Ns, Cycles, GBps, Bps, ...) or a "
                 "dimensionless marker (Ratio, Frac, Factor) so "
                 "cycles-vs-ns and GB/s-vs-bytes/s mixups stay "
                 "visible in review"});
    }
}

// ---------------------------------------------------------------------
// no-bare-catch
// ---------------------------------------------------------------------

void
checkBareCatch(const FileContext &ctx, std::vector<Finding> &out)
{
    if (ctx.quarantineExempt)
        return;
    // Idents proving the handler rethrows or records the error; the
    // lexer never drops these into strings, so a mention is a use.
    static const std::set<std::string> rethrow_or_record = {
        "throw", "rethrow_exception", "current_exception",
    };
    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "catch") || !isPunct(at(toks, i + 1), "(") ||
            !isPunct(at(toks, i + 2), "...") ||
            !isPunct(at(toks, i + 3), ")"))
            continue;
        std::size_t body_begin = i + 4;
        if (!isPunct(at(toks, body_begin), "{"))
            continue;
        std::size_t body_end = matchDelim(toks, body_begin, "{", "}");
        bool handled = false;
        for (std::size_t j = body_begin + 1; j < body_end; ++j) {
            if (toks[j].kind == TokKind::Ident &&
                contains(rethrow_or_record, toks[j].text)) {
                handled = true;
                break;
            }
        }
        if (handled)
            continue;
        out.push_back(
            {ctx.path, toks[i].line, "no-bare-catch",
             "'catch (...)' swallows the error; rethrow ('throw;' / "
             "std::rethrow_exception) or capture it with "
             "std::current_exception() for the failure manifest — "
             "silent quarantine belongs only to the resilient "
             "executor (util/retry, measure/resilience)"});
    }
}

// ---------------------------------------------------------------------
// unit-mismatch
// ---------------------------------------------------------------------

/** Unit an identifier carries: name suffix, then Picos/Cycles type. */
Unit
identUnit(const FileContext &ctx, const std::string &name)
{
    Unit u = unitFromIdentifier(name);
    if (u != Unit::Unknown)
        return u;
    auto it = ctx.syms.typedUnits.find(name);
    return it != ctx.syms.typedUnits.end() ? it->second : Unit::Unknown;
}

/**
 * Unit and spelling of the operand that *ends* at token @p i. Sets
 * @p start to the operand's first token so the caller can reject
 * operands that are really one factor of a product.
 */
Unit
leftOperandUnit(const FileContext &ctx, std::size_t i, std::size_t *start,
                std::string *spelling)
{
    const auto &toks = ctx.toks;
    const Token &t = at(toks, i);
    *start = i;
    if (t.kind == TokKind::Number)
        return Unit::Unknown;

    std::size_t name_idx = i;
    bool is_call = false;
    if (isPunct(t, ")") || isPunct(t, "]")) {
        const char *opener = isPunct(t, ")") ? "(" : "[";
        const char *closer = isPunct(t, ")") ? ")" : "]";
        int depth = 0;
        std::size_t j = i + 1;
        while (j-- > 0) {
            if (isPunct(toks[j], closer))
                ++depth;
            else if (isPunct(toks[j], opener) && --depth == 0)
                break;
        }
        if (depth != 0 || j == 0 || at(toks, j - 1).kind != TokKind::Ident)
            return Unit::Unknown;
        name_idx = j - 1;
        is_call = isPunct(t, ")");
    } else if (t.kind != TokKind::Ident) {
        return Unit::Unknown;
    }

    // Walk back over a member/scope chain so `cfg.latency_ns` starts
    // at `cfg` (product detection) but keeps the member's unit.
    std::size_t s = name_idx;
    while ((isPunct(at(toks, s - 1), ".") || isPunct(at(toks, s - 1), "->") ||
            isPunct(at(toks, s - 1), "::")) &&
           at(toks, s - 2).kind == TokKind::Ident)
        s -= 2;
    *start = s;
    *spelling = toks[name_idx].text + (is_call ? "()" : "");
    return is_call ? unitFromIdentifier(toks[name_idx].text)
                   : identUnit(ctx, toks[name_idx].text);
}

/**
 * Unit and spelling of the operand *starting* at token @p j. Sets
 * @p end one past the operand. Unknown for anything that is not a
 * lone identifier chain, call, or subscript.
 */
Unit
rightOperandUnit(const FileContext &ctx, std::size_t j, std::size_t *end,
                 std::string *spelling)
{
    const auto &toks = ctx.toks;
    while (isPunct(at(toks, j), "-") || isPunct(at(toks, j), "+") ||
           isPunct(at(toks, j), "!"))
        ++j;
    const Token &t = at(toks, j);
    *end = j + 1;
    if (t.kind != TokKind::Ident)
        return Unit::Unknown;
    std::size_t last = j;
    while ((isPunct(at(toks, last + 1), ".") ||
            isPunct(at(toks, last + 1), "->") ||
            isPunct(at(toks, last + 1), "::")) &&
           at(toks, last + 2).kind == TokKind::Ident)
        last += 2;
    if (isPunct(at(toks, last + 1), "(")) { // call
        *end = matchDelim(toks, last + 1, "(", ")") + 1;
        *spelling = toks[last].text + "()";
        return unitFromIdentifier(toks[last].text);
    }
    std::size_t e = last + 1;
    while (isPunct(at(toks, e), "["))
        e = matchDelim(toks, e, "[", "]") + 1;
    *end = e;
    *spelling = toks[last].text;
    return identUnit(ctx, toks[last].text);
}

/** True when token @p i is `*`, `/`, or `%` (a product context). */
bool
isMulDiv(const std::vector<Token> &toks, std::size_t i)
{
    const Token &t = at(toks, i);
    return isPunct(t, "*") || isPunct(t, "/") || isPunct(t, "%");
}

void
checkUnitMismatch(const FileContext &ctx, std::vector<Finding> &out)
{
    const auto &toks = ctx.toks;
    static const std::set<std::string> cmp_ops = {"<",  ">",  "<=",
                                                  ">=", "==", "!="};
    const std::string convert_hint =
        "; convert explicitly (util/units.hh: nsToCycles/cyclesToNs, "
        "Clock, nsToPicos/picosToNs) or annotate with "
        "allow(unit-mismatch) and the reason the units agree";

    for (std::size_t i = 1; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Punct)
            continue;
        const bool addsub = t.text == "+" || t.text == "-";
        const bool cmp = cmp_ops.count(t.text) != 0;
        const bool compound = t.text == "+=" || t.text == "-=";
        const bool assign = t.text == "=";
        if (!addsub && !cmp && !compound && !assign)
            continue;

        // Binary only: the left neighbour must end an operand.
        const Token &prev = toks[i - 1];
        if (prev.kind != TokKind::Ident && prev.kind != TokKind::Number &&
            !isPunct(prev, ")") && !isPunct(prev, "]"))
            continue;

        std::size_t lstart = 0;
        std::string lhs, rhs;
        Unit lu = leftOperandUnit(ctx, i - 1, &lstart, &lhs);
        if (lu == Unit::Unknown)
            continue;
        std::size_t rend = 0;
        Unit ru = rightOperandUnit(ctx, i + 1, &rend, &rhs);
        if (ru == Unit::Unknown || lu == ru)
            continue;

        // An operand that is one factor of a product has the product's
        // unit, which we do not derive: stay quiet.
        if (lstart > 0 && isMulDiv(toks, lstart - 1))
            continue;
        if (isMulDiv(toks, rend))
            continue;

        if (assign || compound) {
            // Single-term right-hand side only.
            const Token &after = at(toks, rend);
            if (!isPunct(after, ";") && !isPunct(after, ",") &&
                !isPunct(after, ")"))
                continue;
        }

        const char *what = addsub ? "cross-unit arithmetic"
                           : cmp  ? "cross-unit comparison"
                                  : "unit-changing assignment";
        out.push_back({ctx.path, t.line, "unit-mismatch",
                       std::string(what) + ": '" + lhs + "' [" +
                           unitName(lu) + "] " + t.text + " '" + rhs +
                           "' [" + unitName(ru) + "]" + convert_hint});
    }

    // Return-value units: a function whose name declares its unit must
    // not return a single term of a different unit.
    for (const FunctionDecl &f : ctx.syms.functions) {
        if (!f.hasBody() || f.returnUnit == Unit::Unknown)
            continue;
        for (std::size_t i = f.bodyBegin + 1; i < f.bodyEnd; ++i) {
            if (!isIdent(toks[i], "return"))
                continue;
            std::size_t rend = 0;
            std::string rhs;
            Unit ru = rightOperandUnit(ctx, i + 1, &rend, &rhs);
            if (ru == Unit::Unknown || !isPunct(at(toks, rend), ";") ||
                ru == f.returnUnit)
                continue;
            out.push_back(
                {ctx.path, toks[i].line, "unit-mismatch",
                 "'" + f.qualified + "' declares [" +
                     unitName(f.returnUnit) + "] in its name but returns '" +
                     rhs + "' [" + unitName(ru) + "]" + convert_hint,
                 f.qualified});
        }
    }

    // Call arguments against cross-file signatures: a single-term
    // argument with a unit must match the parameter's declared unit.
    if (!ctx.index)
        return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident || !isPunct(at(toks, i + 1), "("))
            continue;
        auto it = ctx.index->functions.find(t.text);
        if (it == ctx.index->functions.end() || it->second.ambiguous)
            continue;
        const std::vector<Unit> &params = it->second.paramUnits;
        if (params.empty() ||
            std::all_of(params.begin(), params.end(),
                        [](Unit u) { return u == Unit::Unknown; }))
            continue;
        std::size_t close = matchDelim(toks, i + 1, "(", ")");
        if (close >= toks.size())
            continue;
        // Argument slice boundaries at top-level commas.
        std::vector<std::size_t> begins = {i + 2}, ends;
        int par = 0, brc = 0, sq = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (isPunct(toks[j], "("))
                ++par;
            else if (isPunct(toks[j], ")"))
                --par;
            else if (isPunct(toks[j], "{"))
                ++brc;
            else if (isPunct(toks[j], "}"))
                --brc;
            else if (isPunct(toks[j], "["))
                ++sq;
            else if (isPunct(toks[j], "]"))
                --sq;
            else if (isPunct(toks[j], ",") && par == 0 && brc == 0 &&
                     sq == 0) {
                ends.push_back(j);
                begins.push_back(j + 1);
            }
        }
        ends.push_back(close);
        if (close == i + 2)
            continue; // no arguments
        if (begins.size() != params.size())
            continue; // arity mismatch: overload or varargs, stay quiet
        for (std::size_t a = 0; a < begins.size(); ++a) {
            if (params[a] == Unit::Unknown)
                continue;
            std::size_t rend = 0;
            std::string rhs;
            Unit ru = rightOperandUnit(ctx, begins[a], &rend, &rhs);
            // Whole argument must be the single term we derived.
            if (ru == Unit::Unknown || rend != ends[a] || ru == params[a])
                continue;
            out.push_back(
                {ctx.path, toks[begins[a]].line, "unit-mismatch",
                 "argument " + std::to_string(a + 1) + " of '" + t.text +
                     "' expects [" + unitName(params[a]) + "] but '" + rhs +
                     "' is [" + unitName(ru) + "]" + convert_hint});
        }
    }
}

// ---------------------------------------------------------------------
// unguarded-shared-state
// ---------------------------------------------------------------------

void
checkUnguardedSharedState(const FileContext &ctx, std::vector<Finding> &out)
{
    // Applicable annotations: this file's own plus same-stem siblings
    // (a field annotated in foo.hh is enforced inside foo.cc).
    const std::vector<GuardedField> *fields = &ctx.syms.guarded;
    if (ctx.index) {
        auto it = ctx.index->guardedByStem.find(fileStem(ctx.path));
        if (it != ctx.index->guardedByStem.end())
            fields = &it->second;
    }
    if (fields->empty())
        return;

    std::map<std::string, std::set<std::string>> mutex_of; // field -> mutexes
    std::map<std::string, std::set<std::string>> class_of; // field -> classes
    std::set<std::string> guarded_classes;
    for (const GuardedField &g : *fields) {
        mutex_of[g.field].insert(g.mutexName);
        class_of[g.field].insert(g.className);
        if (!g.className.empty())
            guarded_classes.insert(g.className);
    }

    static const std::set<std::string> mutating_methods = {
        "push_back", "emplace_back", "emplace",    "insert", "erase",
        "clear",     "resize",       "pop_back",   "pop_front",
        "push_front", "assign",      "swap",       "merge",  "reserve",
    };
    static const std::set<std::string> assign_ops = {
        "=",  "+=", "-=", "*=", "/=", "%=", "&=",
        "|=", "^=", "<<=", ">>=", "++", "--",
    };
    static const std::set<std::string> lock_types = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    };

    const auto &toks = ctx.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        auto fit = mutex_of.find(t.text);
        if (fit == mutex_of.end())
            continue;

        std::size_t j = i + 1;
        while (isPunct(at(toks, j), "["))
            j = matchDelim(toks, j, "[", "]") + 1;
        const Token &n = at(toks, j);
        bool mutation =
            (n.kind == TokKind::Punct && assign_ops.count(n.text) != 0) ||
            isPunct(at(toks, i - 1), "++") || isPunct(at(toks, i - 1), "--");
        if (!mutation && (isPunct(n, ".") || isPunct(n, "->")) &&
            at(toks, j + 1).kind == TokKind::Ident &&
            mutating_methods.count(at(toks, j + 1).text) != 0 &&
            isPunct(at(toks, j + 2), "("))
            mutation = true;
        if (!mutation)
            continue;

        const FunctionDecl *f = ctx.syms.enclosing(i);
        if (!f)
            continue; // declaration initializer, not a mutation site
        // Constructors/destructors of the declaring class run before
        // the object is shared.
        if (f->ctorOrDtor && guarded_classes.count(f->className) != 0)
            continue;

        // A *bare* (unprefixed or this->) use of the field name can
        // only refer to the annotated field when the enclosing function
        // is a member of the declaring class; an unrelated class in a
        // sibling file may have its own member with the same name.
        // Prefixed accesses (obj.field / ptr->field) stay enforced
        // everywhere the annotation is in scope.
        bool prefixed = isPunct(at(toks, i - 1), ".") ||
                        isPunct(at(toks, i - 1), "->");
        if (prefixed && i >= 2 && isIdent(at(toks, i - 2), "this"))
            prefixed = false;
        if (!prefixed && class_of[t.text].count(f->className) == 0)
            continue;

        const std::set<std::string> &mutexes = fit->second;
        bool locked = false;
        for (std::size_t s = f->bodyBegin; s < i && !locked; ++s) {
            const Token &lt = toks[s];
            if (lt.kind != TokKind::Ident)
                continue;
            if (lock_types.count(lt.text) != 0) {
                // The lock declaration's statement must name the mutex.
                for (std::size_t e = s + 1; e < i; ++e) {
                    if (isPunct(toks[e], ";"))
                        break;
                    if (toks[e].kind == TokKind::Ident &&
                        mutexes.count(toks[e].text) != 0) {
                        locked = true;
                        break;
                    }
                }
            } else if (mutexes.count(lt.text) != 0 &&
                       (isPunct(at(toks, s + 1), ".") ||
                        isPunct(at(toks, s + 1), "->")) &&
                       isIdent(at(toks, s + 2), "lock")) {
                locked = true;
            }
        }
        if (locked)
            continue;
        std::string mutex_list;
        for (const std::string &m : mutexes)
            mutex_list += (mutex_list.empty() ? "" : ", ") + m;
        out.push_back(
            {ctx.path, t.line, "unguarded-shared-state",
             "'" + t.text + "' is annotated guarded_by(" + mutex_list +
                 ") but is mutated with no lock on that mutex visible in "
                 "'" + f->qualified + "'; take the lock in this scope, or "
                 "annotate with allow(unguarded-shared-state) and the "
                 "reason the caller already holds it",
             f->qualified});
    }
}

// ---------------------------------------------------------------------
// contract-coverage
// ---------------------------------------------------------------------

void
checkContractCoverage(const FileContext &ctx, std::vector<Finding> &out)
{
    if (!ctx.inModelOrSim)
        return;
    static const std::set<std::string> contract_tokens = {
        "MS_REQUIRE", "MS_ENSURE", "MS_INVARIANT", "requireConfig",
        "requireInvariant",
    };
    const auto &toks = ctx.toks;
    for (const FunctionDecl &f : ctx.syms.functions) {
        if (!f.hasBody() || !f.externallyLinked || f.ctorOrDtor)
            continue;
        bool floating = std::any_of(
            f.params.begin(), f.params.end(),
            [](const ParamDecl &p) { return p.floating; });
        if (!floating)
            continue;
        bool contracted = false;
        std::size_t stop = std::min(f.bodyEnd, f.bodyBegin + 80);
        for (std::size_t i = f.bodyBegin + 1; i < stop; ++i) {
            if (toks[i].kind == TokKind::Ident &&
                contract_tokens.count(toks[i].text) != 0) {
                contracted = true;
                break;
            }
        }
        if (contracted)
            continue;
        out.push_back(
            {ctx.path, f.line, "contract-coverage",
             "externally-linked '" + f.qualified +
                 "' takes floating-point parameters but opens with no "
                 "MS_REQUIRE/requireConfig block; contract the valid "
                 "domain at the boundary (util/contract.hh), or annotate "
                 "with allow(contract-coverage) and the reason the domain "
                 "is total",
             f.qualified});
    }
}

} // anonymous namespace

FileContext
makeContext(const std::string &path, const LexResult &lexed,
            const SymbolIndex *index)
{
    FileContext ctx;
    ctx.path = path;
    ctx.toks = lexed.tokens;
    ctx.comments = lexed.comments;
    ctx.syms = scanSymbols(lexed);
    ctx.index = index;

    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    ctx.inBench = p.find("bench/") != std::string::npos;
    // The two per-access hot paths of the repo: the simulator core the
    // sweeps hammer and the serving layer's request path.
    ctx.inHotPath = p.find("src/sim/") != std::string::npos ||
                    p.find("src/serve/") != std::string::npos;
    // Contract-coverage scope: the analytic model and the simulator,
    // where every floating-point input has a physical valid domain.
    ctx.inModelOrSim = p.find("src/model/") != std::string::npos ||
                       p.find("src/sim/") != std::string::npos;
    ctx.rngExempt = p.find("util/rng.") != std::string::npos;
    ctx.logExempt = p.find("util/log.") != std::string::npos;
    // The retry/quarantine layer is where errors get classified and
    // recorded; its own classification switches end in catch (...).
    // The server's reply path joins it deliberately: a reply write to
    // a dead peer must become a counted writeError, never a throw
    // that could lose the one-reply-per-accepted-request ledger.
    ctx.quarantineExempt =
        p.find("util/retry.") != std::string::npos ||
        p.find("measure/resilience.") != std::string::npos ||
        p.find("serve/server.") != std::string::npos;

    // Per-file table of identifiers declared double/float; a cheap
    // stand-in for a type system that serves float-equal and
    // unclamped-double-to-int.
    for (std::size_t i = 0; i + 1 < ctx.toks.size(); ++i) {
        if (!isIdent(ctx.toks[i], "double") && !isIdent(ctx.toks[i], "float"))
            continue;
        std::size_t j = i + 1;
        while (j < ctx.toks.size() &&
               (isIdent(ctx.toks[j], "const") || isPunct(ctx.toks[j], "&") ||
                isPunct(ctx.toks[j], "*")))
            ++j;
        if (j < ctx.toks.size() && ctx.toks[j].kind == TokKind::Ident)
            ctx.floatIdents.insert(ctx.toks[j].text);
    }
    return ctx;
}

const std::vector<Rule> &
allRules()
{
    static const std::vector<Rule> rules = {
        {"no-nondeterminism",
         "rand()/time()/random_device & friends outside util/rng",
         checkNondeterminism},
        {"float-equal",
         "floating-point == / != comparisons",
         checkFloatEqual},
        {"c-style-cast",
         "C-style casts between arithmetic types",
         checkCStyleCast},
        {"unclamped-double-to-int",
         "double->integer static_cast without visible range control",
         checkUnclampedCast},
        {"mutable-global-state",
         "mutable globals / static locals outside util/log",
         checkMutableGlobal},
        {"serial-grid-loop",
         "bench/ grid loops that bypass measure::ParallelExecutor",
         checkSerialGridLoop},
        {"no-untraced-sweep-loop",
         "bench/ sweeps with no PhaseTimer/MS_TRACE_SPAN scope",
         checkUntracedSweepLoop},
        {"no-uncached-batch-solve",
         "bench/ solve() grid loops that bypass the serve::Evaluator "
         "cache",
         checkUncachedBatchSolve},
        {"no-hot-loop-alloc",
         "per-iteration heap allocation in src/sim and src/serve loops",
         checkHotLoopAlloc},
        {"unit-suffix",
         "latency/bandwidth identifiers without a unit suffix",
         checkUnitSuffix},
        {"no-bare-catch",
         "catch (...) that swallows without rethrow or record",
         checkBareCatch},
        {"unit-mismatch",
         "cross-unit arithmetic/comparison/assignment between "
         "unit-suffixed quantities",
         checkUnitMismatch},
        {"unguarded-shared-state",
         "guarded_by-annotated fields mutated with no visible lock",
         checkUnguardedSharedState},
        {"contract-coverage",
         "model/sim entry points with float params but no opening "
         "contract",
         checkContractCoverage},
    };
    return rules;
}

} // namespace memsense::lint
