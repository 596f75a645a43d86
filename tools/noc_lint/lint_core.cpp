#include "lint_core.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace noclint {

namespace {

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

struct Token {
    std::string text;
    int line = 0;
    int col = 0;
    char kind = 'p'; ///< 'i' ident, 'n' number, 's' string/char, 'p' punct
};

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || (c >= '0' && c <= '9');
}

/** Parses noc-lint:allow(...) occurrences out of one comment's text. */
void
parseAllow(const std::string &comment, const std::string &path, int line,
           std::vector<AllowComment> &allows)
{
    const std::string key = "noc-lint:allow(";
    std::size_t at = comment.find(key);
    if (at == std::string::npos)
        return;
    AllowComment a;
    a.file = path;
    a.line = line;
    std::size_t i = at + key.size();
    std::string cur;
    while (i < comment.size() && comment[i] != ')') {
        char c = comment[i++];
        if (c == ',') {
            if (!cur.empty())
                a.rules.push_back(cur);
            cur.clear();
        } else if (c != ' ' && c != '\t') {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        a.rules.push_back(cur);
    if (!a.rules.empty())
        allows.push_back(std::move(a));
}

std::vector<Token>
lex(const std::string &src, const std::string &path,
    std::vector<AllowComment> &allows)
{
    std::vector<Token> toks;
    std::size_t i = 0;
    int line = 1, col = 1;
    bool atLineStart = true;

    auto advance = [&](char c) {
        if (c == '\n') {
            ++line;
            col = 1;
            atLineStart = true;
        } else {
            ++col;
        }
    };

    static const char *three[] = {"<<=", ">>=", "->*", "..."};
    static const char *two[] = {"::", "->", "++", "--", "+=", "-=", "*=",
                                "/=", "%=", "&=", "|=", "^=", "==", "!=",
                                "<=", ">=", "&&", "||", "<<", ">>", ".*"};

    while (i < src.size()) {
        char c = src[i];
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance(c);
            ++i;
            continue;
        }
        // Preprocessor directive: swallow the logical line.
        if (c == '#' && atLineStart) {
            while (i < src.size()) {
                if (src[i] == '\\' && i + 1 < src.size() &&
                    (src[i + 1] == '\n' ||
                     (src[i + 1] == '\r' && i + 2 < src.size() &&
                      src[i + 2] == '\n'))) {
                    advance(src[i]);
                    ++i; // backslash
                    while (i < src.size() && src[i] != '\n') {
                        advance(src[i]);
                        ++i;
                    }
                    if (i < src.size()) {
                        advance('\n');
                        ++i;
                    }
                    continue;
                }
                if (src[i] == '\n')
                    break;
                advance(src[i]);
                ++i;
            }
            continue;
        }
        atLineStart = false;
        // Comments (capturing allow directives).
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            int cl = line;
            std::string body;
            while (i < src.size() && src[i] != '\n') {
                body.push_back(src[i]);
                advance(src[i]);
                ++i;
            }
            parseAllow(body, path, cl, allows);
            continue;
        }
        if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            int cl = line;
            std::string body;
            advance(src[i]);
            ++i;
            advance(src[i]);
            ++i;
            while (i + 1 < src.size() &&
                   !(src[i] == '*' && src[i + 1] == '/')) {
                body.push_back(src[i]);
                advance(src[i]);
                ++i;
            }
            if (i + 1 < src.size()) {
                advance(src[i]);
                ++i;
                advance(src[i]);
                ++i;
            } else {
                i = src.size();
            }
            parseAllow(body, path, cl, allows);
            continue;
        }
        // String / char literals (raw strings handled after idents).
        if (c == '"' || c == '\'') {
            Token t{std::string(1, c), line, col, 's'};
            advance(c);
            ++i;
            while (i < src.size() && src[i] != c) {
                if (src[i] == '\\' && i + 1 < src.size()) {
                    advance(src[i]);
                    ++i;
                }
                advance(src[i]);
                ++i;
            }
            if (i < src.size()) {
                advance(src[i]);
                ++i;
            }
            toks.push_back(std::move(t));
            continue;
        }
        if (isIdentStart(c)) {
            Token t{"", line, col, 'i'};
            while (i < src.size() && isIdentChar(src[i])) {
                t.text.push_back(src[i]);
                advance(src[i]);
                ++i;
            }
            // Raw string literal prefix (R"delim( ... )delim").
            bool rawPrefix = t.text == "R" || t.text == "u8R" ||
                             t.text == "uR" || t.text == "UR" ||
                             t.text == "LR";
            if (rawPrefix && i < src.size() && src[i] == '"') {
                advance(src[i]);
                ++i;
                std::string delim;
                while (i < src.size() && src[i] != '(') {
                    delim.push_back(src[i]);
                    advance(src[i]);
                    ++i;
                }
                std::string close = ")" + delim + "\"";
                while (i < src.size() &&
                       src.compare(i, close.size(), close) != 0) {
                    advance(src[i]);
                    ++i;
                }
                for (std::size_t k = 0; k < close.size() && i < src.size();
                     ++k) {
                    advance(src[i]);
                    ++i;
                }
                toks.push_back(Token{"\"raw\"", t.line, t.col, 's'});
                continue;
            }
            toks.push_back(std::move(t));
            continue;
        }
        if (c >= '0' && c <= '9') {
            Token t{"", line, col, 'n'};
            while (i < src.size() &&
                   (isIdentChar(src[i]) || src[i] == '.' ||
                    src[i] == '\'' ||
                    ((src[i] == '+' || src[i] == '-') && i > 0 &&
                     (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                      src[i - 1] == 'p' || src[i - 1] == 'P')))) {
                t.text.push_back(src[i]);
                advance(src[i]);
                ++i;
            }
            toks.push_back(std::move(t));
            continue;
        }
        // Punctuation, longest match first.
        Token t{"", line, col, 'p'};
        bool matched = false;
        for (const char *op : three) {
            if (src.compare(i, 3, op) == 0) {
                t.text = op;
                matched = true;
                break;
            }
        }
        if (!matched) {
            for (const char *op : two) {
                if (src.compare(i, 2, op) == 0) {
                    t.text = op;
                    matched = true;
                    break;
                }
            }
        }
        if (!matched)
            t.text = std::string(1, c);
        for (std::size_t k = 0; k < t.text.size(); ++k) {
            advance(src[i]);
            ++i;
        }
        toks.push_back(std::move(t));
    }
    return toks;
}

// ---------------------------------------------------------------------
// Registry (pass 1)
// ---------------------------------------------------------------------

struct StateInfo {
    /**
     * Which annotation guarded the member. Phase gives the plain phase
     * discipline; the ownership kinds layer extra rules on top
     * (own-cross-write / own-nonatomic-shared / own-epilogue-escape).
     */
    enum Kind { Phase, Owned, SharedAtomic, Epilogue };
    std::set<std::string> phases;
    std::string owner;
    Kind kind = Phase;
};

struct Registry {
    std::map<std::string, StateInfo> states;
    /** "Owner::name" (or "::name" for free functions) -> phase. */
    std::map<std::string, std::string> fnPhase;
    std::set<std::string> unorderedTypes; ///< using-aliases of unordered
    /** var/member name -> files that declared it unordered. */
    std::map<std::string, std::set<std::string>> unorderedVars;
};

const Token kEof{"", 0, 0, 'p'};

const Token &
tok(const std::vector<Token> &t, std::size_t i)
{
    return i < t.size() ? t[i] : kEof;
}

/** Index just past the match of the opener at @p i ('(', '[', '{'). */
std::size_t
skipBalanced(const std::vector<Token> &t, std::size_t i)
{
    const std::string &open = tok(t, i).text;
    std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].text == open)
            ++depth;
        else if (t[i].text == close && --depth == 0)
            return i + 1;
    }
    return t.size();
}

/** Index just past a balanced template argument list starting at '<'. */
std::size_t
skipTemplate(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        if (s == "<")
            ++depth;
        else if (s == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (s == ">>") {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (s == ";" || s == "{")
            return i; // not a template after all
    }
    return t.size();
}

/** Tracks class/struct scopes by brace depth. */
struct ClassTracker {
    struct Scope {
        std::string name;
        int depth;
    };
    std::vector<Scope> stack;
    std::string pendingClass;
    bool pendingActive = false;
    int depth = 0;

    std::string current() const
    {
        return stack.empty() ? "" : stack.back().name;
    }

    void
    onToken(const std::vector<Token> &t, std::size_t i)
    {
        const std::string &s = t[i].text;
        if ((s == "class" || s == "struct") && t[i].kind == 'i') {
            if (i > 0 && tok(t, i - 1).text == "enum")
                return;
            const Token &n = tok(t, i + 1);
            const Token &after = tok(t, i + 2);
            // `template <class T>` / `template <class T, ...>`
            if (n.kind == 'i' && after.text != ">" && after.text != ",") {
                pendingClass = n.text;
                pendingActive = true;
            }
            return;
        }
        if (s == ";") {
            pendingActive = false;
            return;
        }
        if (s == "{") {
            if (pendingActive) {
                stack.push_back({pendingClass, depth});
                pendingActive = false;
            }
            ++depth;
            return;
        }
        if (s == "}") {
            --depth;
            if (!stack.empty() && stack.back().depth == depth)
                stack.pop_back();
        }
    }
};

const std::set<std::string> kUnorderedTokens = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kRandCalls = {"rand", "srand", "drand48",
                                          "lrand48", "mrand48"};

const std::set<std::string> kStdEngines = {
    "mt19937",      "mt19937_64",           "minstd_rand",
    "minstd_rand0", "default_random_engine", "ranlux24",
    "ranlux48",     "ranlux24_base",         "ranlux48_base",
    "knuth_b"};

const std::set<std::string> kWallClock = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get"};

const std::set<std::string> kAssignOps = {"=",  "+=", "-=",  "*=",
                                          "/=", "%=", "&=",  "|=",
                                          "^=", "<<=", ">>="};

const std::set<std::string> kAtomicWrites = {
    "store",          "fetch_add",
    "fetch_sub",      "fetch_or",
    "fetch_and",      "fetch_xor",
    "exchange",       "compare_exchange_weak",
    "compare_exchange_strong"};

const std::set<std::string> kCtrlKeywords = {
    "if",     "for",        "while",  "switch",        "return",
    "sizeof", "alignof",    "decltype", "static_assert", "catch",
    "new",    "delete",     "throw",  "case",          "goto",
    "assert", "co_return",  "co_await"};

// Calls that take their arguments by const reference and write none of
// them, so passing a member to one is a read, not a by-ref escape.
const std::set<std::string> kReadOnlyCalls = {"min", "max", "clamp"};

bool
isRngFile(const std::string &path)
{
    return path.find("common/rng.") != std::string::npos;
}

/**
 * Registers NOC_PHASE_STATE / NOC_PHASE_FN annotations and unordered
 * container declarations from one file.
 */
void
registerFile(const std::string &path, const std::vector<Token> &t,
             Registry &reg)
{
    ClassTracker cls;
    // Member name: last depth-0 identifier before ; = or {.
    auto memberName = [&t](std::size_t j) {
        std::string name;
        while (j < t.size()) {
            const std::string &v = t[j].text;
            if (v == ";" || v == "=" || v == "{")
                break;
            if (v == "<") {
                j = skipTemplate(t, j);
                continue;
            }
            if (v == "[") {
                j = skipBalanced(t, j);
                continue;
            }
            if (t[j].kind == 'i')
                name = v;
            ++j;
        }
        return name;
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        cls.onToken(t, i);
        if (t[i].kind != 'i')
            continue;
        const std::string &s = t[i].text;

        bool parenState = (s == "NOC_PHASE_STATE" ||
                           s == "NOC_OWNED_STATE" ||
                           s == "NOC_SHARED_ATOMIC") &&
                          tok(t, i + 1).text == "(";
        if (parenState) {
            std::size_t end = skipBalanced(t, i + 1);
            StateInfo info;
            info.owner = cls.current();
            info.kind = s == "NOC_OWNED_STATE" ? StateInfo::Owned
                        : s == "NOC_SHARED_ATOMIC"
                            ? StateInfo::SharedAtomic
                            : StateInfo::Phase;
            for (std::size_t k = i + 2; k + 1 < end; ++k) {
                if (t[k].kind == 'i')
                    info.phases.insert(t[k].text);
            }
            std::string name = memberName(end);
            if (!name.empty())
                reg.states[name] = std::move(info);
            i = end - 1;
            continue;
        }
        if (s == "NOC_EPILOGUE_STATE") {
            // Object-like macro: no argument list, phase is implied.
            StateInfo info;
            info.owner = cls.current();
            info.kind = StateInfo::Epilogue;
            info.phases.insert("epilogue");
            std::string name = memberName(i + 1);
            if (!name.empty())
                reg.states[name] = std::move(info);
            continue;
        }
        if (s == "NOC_PHASE_FN" && tok(t, i + 1).text == "(") {
            std::size_t end = skipBalanced(t, i + 1);
            std::string phase;
            for (std::size_t k = i + 2; k + 1 < end; ++k) {
                if (t[k].kind == 'i')
                    phase = t[k].text;
            }
            // Function name: identifier before the first depth-0 '('.
            std::string name;
            std::size_t j = end;
            int guard = 0;
            while (j < t.size() && guard++ < 64) {
                const std::string &v = t[j].text;
                if (v == ";" || v == "{")
                    break;
                if (v == "<") {
                    j = skipTemplate(t, j);
                    continue;
                }
                if (v == "(") {
                    if (tok(t, j - 1).kind == 'i')
                        name = t[j - 1].text;
                    break;
                }
                ++j;
            }
            if (!name.empty() && !phase.empty())
                reg.fnPhase[cls.current() + "::" + name] = phase;
            i = end - 1;
            continue;
        }
        if (s == "using" && tok(t, i + 1).kind == 'i' &&
            tok(t, i + 2).text == "=") {
            // using X = ... unordered_map<...>;
            for (std::size_t k = i + 3; k < t.size(); ++k) {
                if (t[k].text == ";")
                    break;
                if (kUnorderedTokens.count(t[k].text)) {
                    reg.unorderedTypes.insert(tok(t, i + 1).text);
                    break;
                }
            }
            continue;
        }
        if (kUnorderedTokens.count(s) && tok(t, i + 1).text == "<") {
            std::size_t j = skipTemplate(t, i + 1);
            while (tok(t, j).text == "&" || tok(t, j).text == "*" ||
                   tok(t, j).text == "const")
                ++j;
            if (tok(t, j).kind == 'i')
                reg.unorderedVars[tok(t, j).text].insert(path);
            continue;
        }
        if (reg.unorderedTypes.count(s) && tok(t, i + 1).kind == 'i') {
            const std::string &after = tok(t, i + 2).text;
            if (after == ";" || after == "=" || after == "(" ||
                after == "{")
                reg.unorderedVars[tok(t, i + 1).text].insert(path);
        }
    }
}

// ---------------------------------------------------------------------
// Analysis (pass 2)
// ---------------------------------------------------------------------

struct FnCtx {
    std::string name;
    std::string memberOf;
    std::string phase;
    int depthInside = 0; ///< brace depth just inside the body
    std::map<std::string, std::string> aliases; ///< local ref -> member
    std::set<std::string> nbAliases;            ///< neighbour pointers
};

struct Analyzer {
    const std::string &path;
    const std::vector<Token> &t;
    const Registry &reg;
    std::vector<Diag> &diags;

    ClassTracker cls;
    std::vector<FnCtx> fnStack;
    std::map<std::size_t, FnCtx> pendingBodies;
    std::size_t suppressHeadUntil = 0;
    std::set<std::size_t> crossFlagged;

    void
    diag(std::size_t i, const std::string &rule, const std::string &msg)
    {
        diags.push_back(
            {path, tok(t, i).line, tok(t, i).col, rule, msg});
    }

    std::string
    fnPhaseOf(const std::string &memberOf, const std::string &name) const
    {
        auto it = reg.fnPhase.find(memberOf + "::" + name);
        return it != reg.fnPhase.end() ? it->second : std::string();
    }

    /** Walks back over `a.b[c]->d` chains to the chain's first token. */
    std::size_t
    chainStart(std::size_t i) const
    {
        std::size_t s = i;
        while (s >= 2) {
            const std::string &p = tok(t, s - 1).text;
            if (p != "." && p != "->")
                break;
            std::size_t q = s - 2;
            // Hop backwards over trailing [..] / (..) groups to the
            // identifier that roots the previous chain element.
            while (q > 0 &&
                   (tok(t, q).text == "]" || tok(t, q).text == ")")) {
                const std::string close = tok(t, q).text;
                const std::string open = close == "]" ? "[" : "(";
                int depth = 0;
                while (q > 0) {
                    const std::string &w = tok(t, q).text;
                    if (w == close)
                        ++depth;
                    else if (w == open && --depth == 0)
                        break;
                    --q;
                }
                if (q == 0)
                    break;
                --q;
            }
            s = q;
        }
        return s;
    }

    /** The '(' enclosing token @p s, or npos. */
    std::size_t
    enclosingOpenParen(std::size_t s) const
    {
        int depth = 0;
        for (std::size_t p = s; p-- > 0;) {
            const std::string &v = tok(t, p).text;
            if (v == ")")
                ++depth;
            else if (v == "(") {
                if (depth == 0)
                    return p;
                --depth;
            } else if (depth == 0 &&
                       (v == ";" || v == "{" || v == "}")) {
                return static_cast<std::size_t>(-1);
            }
        }
        return static_cast<std::size_t>(-1);
    }

    /** True when the access chain rooted before @p i is a call argument. */
    bool
    isCallArgument(std::size_t i) const
    {
        std::size_t s = chainStart(i);
        std::size_t p = enclosingOpenParen(s);
        if (p == static_cast<std::size_t>(-1) || p == 0)
            return false;
        const Token &b = tok(t, p - 1);
        return b.kind == 'i' && !kCtrlKeywords.count(b.text) &&
               !kReadOnlyCalls.count(b.text);
    }

    /** Classifies the access to a guarded member at token @p i. */
    bool
    isWrite(std::size_t i) const
    {
        std::size_t j = i + 1;
        while (tok(t, j).text == "[")
            j = skipBalanced(t, j);
        const std::string &n = tok(t, j).text;
        if (kAssignOps.count(n) || n == "++" || n == "--")
            return true;
        const std::string &prev = tok(t, i - 1).text;
        if (prev == "++" || prev == "--")
            return true;
        if (n == "." || n == "->") {
            const std::string &m2 = tok(t, j + 1).text;
            if (kAtomicWrites.count(m2))
                return true;
            // Field write through the member: totals.created = ...
            std::size_t j3 = j + 2;
            while (tok(t, j3).text == "[")
                j3 = skipBalanced(t, j3);
            return kAssignOps.count(tok(t, j3).text) != 0;
        }
        if (n == ")" || n == ",")
            return isCallArgument(i); // by-ref escape into a call
        return false;
    }

    void
    checkGuardedAccess(std::size_t i)
    {
        if (fnStack.empty())
            return;
        FnCtx &fn = fnStack.back();
        const std::string &s = t[i].text;
        const std::string &prev = tok(t, i - 1).text;

        // Reference alias: type &x = <member>[...];
        auto st = reg.states.find(s);
        if (st != reg.states.end() && prev == "=" && i >= 3 &&
            tok(t, i - 2).kind == 'i' && tok(t, i - 3).text == "&") {
            fn.aliases[tok(t, i - 2).text] = s;
            return;
        }

        std::string member;
        if (st != reg.states.end()) {
            bool scoped = prev == "." || prev == "->" ||
                          fn.memberOf == st->second.owner;
            if (scoped)
                member = s;
        } else {
            auto al = fn.aliases.find(s);
            if (al != fn.aliases.end())
                member = al->second;
        }
        if (member.empty() || crossFlagged.count(i))
            return;
        if (!isWrite(i))
            return;

        const StateInfo &info = reg.states.at(member);
        bool ctor = !fn.memberOf.empty() && fn.name == fn.memberOf;
        if (ctor || fn.phase == "setup")
            return;

        std::string where = fn.memberOf.empty()
                                ? fn.name
                                : fn.memberOf + "::" + fn.name;

        // Owner-private state written through a foreign object: the
        // write crosses the shard-ownership wall no matter what phase
        // the writer runs in (aliases resolve to this-rooted members,
        // so only explicit foreign roots land here).
        if (info.kind == StateInfo::Owned) {
            std::size_t root = chainStart(i);
            const Token &rt = tok(t, root);
            if (root < i && rt.kind == 'i' && rt.text != "this") {
                diag(i, "own-cross-write",
                     "'" + where + "' writes owner-private '" + member +
                         "' through foreign object '" + rt.text +
                         "'; NOC_OWNED_STATE may only be written by its "
                         "owning router/shard (cross-shard traffic goes "
                         "through reserveInputVc or the atomic mirrors)");
                return;
            }
        }

        if (info.phases.count(fn.phase))
            return;

        // Epilogue-only state written while the workers may be running:
        // the barrier's release/acquire hand-off is the only thing that
        // makes these members race-free, so any write outside the
        // in-barrier epilogue escapes the single-threaded window.
        if (info.kind == StateInfo::Epilogue) {
            std::string from =
                fn.phase.empty()
                    ? "'" + where + "', which has no NOC_PHASE_FN annotation"
                    : "'" + where + "' (phase " + fn.phase + ")";
            diag(i, "own-epilogue-escape",
                 "NOC_EPILOGUE_STATE '" + member + "' written from " +
                     from +
                     "; epilogue state is only safe inside the "
                     "single-threaded barrier epilogue that publishes it");
            return;
        }

        std::string phases;
        for (const std::string &p : info.phases)
            phases += (phases.empty() ? "" : ", ") + p;
        if (fn.phase.empty()) {
            diag(i, "phase-unguarded-write",
                 "write to phase-guarded '" + member +
                     "' (allowed phases: " + phases + ") from '" + where +
                     "', which has no NOC_PHASE_FN annotation");
        } else {
            diag(i, "phase-cross-write",
                 "'" + where + "' (phase " + fn.phase +
                     ") writes phase-guarded '" + member +
                     "' (allowed phases: " + phases + ")");
        }
    }

    /**
     * At a NOC_SHARED_ATOMIC annotation: the declared member's type
     * must spell std::atomic somewhere before the declarator ends —
     * the whole point of the annotation is that two shards touch the
     * member concurrently, which is undefined for a plain scalar.
     */
    void
    checkSharedAtomicDecl(std::size_t i)
    {
        std::size_t end = skipBalanced(t, i + 1);
        bool hasAtomic = false;
        std::string name;
        std::size_t j = end;
        while (j < t.size()) {
            const std::string &v = t[j].text;
            if (v == ";" || v == "=" || v == "{")
                break;
            if (v == "atomic" || v == "atomic_flag")
                hasAtomic = true;
            if (v == "[") {
                j = skipBalanced(t, j);
                continue;
            }
            if (t[j].kind == 'i')
                name = v;
            ++j;
        }
        if (!hasAtomic && !name.empty()) {
            diag(i, "own-nonatomic-shared",
                 "NOC_SHARED_ATOMIC member '" + name +
                     "' is not declared std::atomic; two shards access "
                     "it in the same cycle, so the mirror hand-off is "
                     "undefined without atomic load/store");
        }
    }

    void
    checkCrossRouter(std::size_t i)
    {
        if (fnStack.empty())
            return;
        FnCtx &fn = fnStack.back();
        const std::string &s = t[i].text;

        // Alias declaration: Router *nb = neighbors_[d] / neighbor(d).
        if ((s == "Router" || s == "auto") && tok(t, i + 1).text == "*" &&
            tok(t, i + 2).kind == 'i' && tok(t, i + 3).text == "=") {
            const std::string &rhs = tok(t, i + 4).text;
            if (rhs == "neighbor" || rhs == "neighbors_")
                fn.nbAliases.insert(tok(t, i + 2).text);
            return;
        }

        std::size_t k = static_cast<std::size_t>(-1);
        if (s == "neighbor" && tok(t, i + 1).text == "(")
            k = skipBalanced(t, i + 1);
        else if (s == "neighbors_" && tok(t, i + 1).text == "[")
            k = skipBalanced(t, i + 1);
        else if (fn.nbAliases.count(s))
            k = i + 1;
        if (k == static_cast<std::size_t>(-1) || tok(t, k).text != "->")
            return;
        const Token &m = tok(t, k + 1);
        if (m.kind != 'i')
            return;
        bool ok = m.text == "reserveInputVc" ||
                  ((m.text == "pendFlitIn_" || m.text == "pendCreditIn_") &&
                   fn.phase == "send");
        if (!ok) {
            std::string where = fn.memberOf.empty()
                                    ? fn.name
                                    : fn.memberOf + "::" + fn.name;
            diag(i, "cross-router-access",
                 "'" + where + "' reaches into a neighbouring router's '" +
                     m.text +
                     "'; cross-router state may only move through "
                     "reserveInputVc or the send-phase occupancy mirrors");
            crossFlagged.insert(k + 1);
        }
    }

    void
    checkDeterminism(std::size_t i)
    {
        if (isRngFile(path))
            return;
        const std::string &s = t[i].text;
        const std::string &next = tok(t, i + 1).text;

        if (kStdEngines.count(s) && tok(t, i - 1).text == "::") {
            const Token &n1 = tok(t, i + 1);
            const std::string &n2 = tok(t, i + 2).text;
            bool unseeded =
                n1.kind == 'i' &&
                (n2 == ";" || n2 == "," || n2 == ")" ||
                 (n2 == "{" && tok(t, i + 3).text == "}"));
            if (unseeded) {
                diag(i, "det-unseeded-rng",
                     "default-constructed std::" + s +
                         " (implementation-defined seed); draw streams "
                         "from common/rng.h instead");
            } else {
                diag(i, "det-rand",
                     "std::" + s +
                         " used outside common/rng.*; all randomness "
                         "must come from the seeded Rng streams");
            }
            return;
        }
        if (kRandCalls.count(s) && next == "(") {
            diag(i, "det-rand",
                 "libc " + s +
                     "() is not seed-reproducible; use the Rng streams "
                     "in common/rng.h");
            return;
        }
        if (s == "random_device") {
            diag(i, "det-rand",
                 "std::random_device is nondeterministic by design; "
                 "derive seeds from the run configuration");
            return;
        }
        if (kWallClock.count(s)) {
            diag(i, "det-wallclock",
                 s + " read in simulation code; results must be a pure "
                     "function of config and seed (cycle time comes from "
                     "the Cycle counter)");
            return;
        }
        if ((s == "map" || s == "set") && tok(t, i - 1).text == "::" &&
            tok(t, i - 2).text == "std" && next == "<") {
            checkPointerKey(i, s);
            return;
        }
        if (kUnorderedTokens.count(s) && next == "<") {
            checkPointerKey(i, s);
            return;
        }
        // Iteration over a variable declared unordered (this file or a
        // header, so members used cross-TU are still caught).
        auto uv = reg.unorderedVars.find(s);
        if (uv != reg.unorderedVars.end()) {
            bool visible = uv->second.count(path) != 0;
            for (auto it = uv->second.begin();
                 !visible && it != uv->second.end(); ++it)
                visible = it->size() >= 2 &&
                          it->compare(it->size() - 2, 2, ".h") == 0;
            if (!visible)
                return;
            bool rangeFor = tok(t, i - 1).text == ":" && next == ")";
            bool beginCall =
                (next == "." || next == "->") &&
                (tok(t, i + 2).text == "begin" ||
                 tok(t, i + 2).text == "cbegin") &&
                tok(t, i + 3).text == "(";
            if (rangeFor || beginCall) {
                diag(i, "det-unordered-iter",
                     "iteration over unordered container '" + s +
                         "': order is hash/libc++-dependent and leaks "
                         "into results; iterate sorted keys instead");
            }
        }
    }

    void
    checkPointerKey(std::size_t i, const std::string &container)
    {
        // First template argument ends at the first depth-1 ',' or '>'.
        std::size_t j = i + 1; // at '<'
        int depth = 0;
        std::string lastTok;
        for (; j < t.size(); ++j) {
            const std::string &v = t[j].text;
            if (v == "<")
                ++depth;
            else if (v == ">" || v == ">>") {
                if (depth <= (v == ">" ? 1 : 2))
                    break;
                depth -= (v == ">" ? 1 : 2);
            } else if (v == "," && depth == 1)
                break;
            else if (v == ";" || v == "{")
                break;
            else if (depth == 1)
                lastTok = v;
        }
        if (lastTok == "*") {
            diag(i, "det-pointer-key",
                 "std::" + container +
                     " keyed by pointer value: iteration order follows "
                     "the allocator; key by a stable id instead");
        }
    }

    void
    checkFlit(std::size_t i)
    {
        const std::string &prev = tok(t, i - 1).text;
        if (prev == "class" || prev == "struct" || prev == "enum")
            return;
        const Token &n1 = tok(t, i + 1);
        // Flit:: / Flit* / Flit& / template arg / closing contexts.
        if (n1.kind != 'i')
            return;
        const std::string &n2 = tok(t, i + 2).text;
        const std::string &n3 = tok(t, i + 3).text;
        bool insideFn = !fnStack.empty();

        if (n2 == "=" && n3 != "{") {
            diag(i, "flit-copy",
                 "copy-initialisation of Flit '" + n1.text +
                     "'; the zero-copy discipline allows one copy per "
                     "hop at the sanctioned sites only (DESIGN 12)");
            return;
        }
        if (n2 == "(" && insideFn) {
            diag(i, "flit-copy",
                 "Flit copy-construction of '" + n1.text +
                     "'; use peek/drop references on the hot path "
                     "(DESIGN 12)");
            return;
        }
        if (n2 == "(" && !insideFn) {
            diag(i, "flit-copy",
                 "'" + n1.text +
                     "' returns Flit by value; sanctioned hand-off "
                     "sites must carry a noc-lint:allow(flit-copy)");
            return;
        }
        if (n2 == "::" && tok(t, i + 3).kind == 'i' &&
            tok(t, i + 4).text == "(") {
            diag(i, "flit-copy",
                 "'" + n1.text + "::" + n3 +
                     "' returns Flit by value; sanctioned hand-off "
                     "sites must carry a noc-lint:allow(flit-copy)");
            return;
        }
        if (n2 == "{" && tok(t, i + 3).kind == 'i' && tok(t, i + 4).text == "}") {
            diag(i, "flit-copy",
                 "brace copy-construction of Flit '" + n1.text +
                     "' (DESIGN 12)");
            return;
        }
        if ((n2 == "," || n2 == ")") && (prev == "(" || prev == ",")) {
            diag(i, "flit-copy",
                 "Flit parameter '" + n1.text +
                     "' passed by value; pass const Flit & (DESIGN 12)");
            return;
        }
    }

    /**
     * At a function-head candidate (ident + '(' outside any body),
     * finds the body '{' and registers the pending context, or skips
     * to the end of a mere declaration.
     */
    void
    tryFunctionHead(std::size_t i)
    {
        std::size_t close = skipBalanced(t, i + 1); // past ')'
        bool initList = false;
        for (std::size_t j = close; j < t.size(); ++j) {
            const std::string &v = t[j].text;
            if (v == "(") {
                j = skipBalanced(t, j) - 1; // noexcept(...), etc.
                continue;
            }
            if (v == ";" || v == "=") {
                // declaration / = default / = delete / = 0
                suppressHeadUntil = j;
                return;
            }
            if (v == ":") {
                initList = true;
                continue;
            }
            if (v == "{") {
                const std::string &before = tok(t, j - 1).text;
                if (initList &&
                    (tok(t, j - 1).kind == 'i' || before == ">")) {
                    j = skipBalanced(t, j) - 1; // member-init brace
                    continue;
                }
                FnCtx fn;
                fn.name = t[i].text;
                if (tok(t, i - 1).text == "::" &&
                    tok(t, i - 2).kind == 'i')
                    fn.memberOf = tok(t, i - 2).text;
                else
                    fn.memberOf = cls.current();
                fn.phase = fnPhaseOf(fn.memberOf, fn.name);
                pendingBodies[j] = std::move(fn);
                suppressHeadUntil = j;
                return;
            }
        }
    }

    void
    run()
    {
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::string &s = t[i].text;
            if (s == "{") {
                auto pend = pendingBodies.find(i);
                cls.onToken(t, i);
                if (pend != pendingBodies.end()) {
                    pend->second.depthInside = cls.depth;
                    fnStack.push_back(std::move(pend->second));
                    pendingBodies.erase(pend);
                }
                continue;
            }
            if (s == "}") {
                cls.onToken(t, i);
                if (!fnStack.empty() &&
                    cls.depth < fnStack.back().depthInside)
                    fnStack.pop_back();
                continue;
            }
            cls.onToken(t, i);
            if (t[i].kind != 'i')
                continue;

            if ((s == "NOC_PHASE_STATE" || s == "NOC_PHASE_FN" ||
                 s == "NOC_OWNED_STATE" || s == "NOC_SHARED_ATOMIC") &&
                tok(t, i + 1).text == "(") {
                if (s == "NOC_SHARED_ATOMIC")
                    checkSharedAtomicDecl(i);
                i = skipBalanced(t, i + 1) - 1;
                continue;
            }
            if (s == "NOC_EPILOGUE_STATE")
                continue; // object-like marker, not an access

            if (fnStack.empty() && i >= suppressHeadUntil &&
                tok(t, i + 1).text == "(" && !kCtrlKeywords.count(s) &&
                tok(t, i - 1).text != "." && tok(t, i - 1).text != "->") {
                tryFunctionHead(i);
            }

            checkCrossRouter(i);
            checkGuardedAccess(i);
            checkDeterminism(i);
            if (s == "Flit")
                checkFlit(i);
        }
    }
};

bool
diagLess(const Diag &a, const Diag &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.rule < b.rule;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------

const std::vector<std::string> &
ruleIds()
{
    static const std::vector<std::string> ids = {
        "phase-cross-write", "phase-unguarded-write", "cross-router-access",
        "own-cross-write",   "own-nonatomic-shared",  "own-epilogue-escape",
        "det-unordered-iter", "det-rand",            "det-unseeded-rng",
        "det-wallclock",      "det-pointer-key",      "flit-copy",
        "stale-allow"};
    return ids;
}

void
writeSarif(const std::vector<Diag> &diags, std::ostream &os)
{
    auto esc = [](const std::string &s) {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out.push_back(c);
                }
            }
        }
        return out;
    };

    os << "{\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"noc-lint\",\n"
       << "          \"informationUri\": "
          "\"tools/noc_lint/README.md\",\n"
       << "          \"rules\": [\n";
    const std::vector<std::string> &ids = ruleIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        os << "            {\"id\": \"" << esc(ids[i]) << "\"}"
           << (i + 1 < ids.size() ? "," : "") << "\n";
    }
    os << "          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"results\": [\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diag &d = diags[i];
        os << "        {\n"
           << "          \"ruleId\": \"" << esc(d.rule) << "\",\n"
           << "          \"level\": \"warning\",\n"
           << "          \"message\": {\"text\": \"" << esc(d.message)
           << "\"},\n"
           << "          \"locations\": [\n"
           << "            {\n"
           << "              \"physicalLocation\": {\n"
           << "                \"artifactLocation\": {\"uri\": \""
           << esc(d.file) << "\"},\n"
           << "                \"region\": {\"startLine\": "
           << (d.line > 0 ? d.line : 1)
           << ", \"startColumn\": " << (d.col > 0 ? d.col : 1) << "}\n"
           << "              }\n"
           << "            }\n"
           << "          ]\n"
           << "        }" << (i + 1 < diags.size() ? "," : "") << "\n";
    }
    os << "      ]\n"
       << "    }\n"
       << "  ]\n"
       << "}\n";
}

std::string
formatDiag(const Diag &d)
{
    return d.file + ":" + std::to_string(d.line) + ":" +
           std::to_string(d.col) + ": warning: " + d.message + " [noc-lint-" +
           d.rule + "]";
}

std::vector<AllowComment>
collectAllowComments(const std::string &path, const std::string &text)
{
    std::vector<AllowComment> allows;
    lex(text, path, allows);
    return allows;
}

RunResult
applySuppressions(std::vector<Diag> diags, std::vector<AllowComment> allows)
{
    RunResult out;
    for (Diag &d : diags) {
        bool suppressed = false;
        for (AllowComment &a : allows) {
            if (a.file != d.file)
                continue;
            if (a.line != d.line && a.line != d.line - 1)
                continue;
            if (std::find(a.rules.begin(), a.rules.end(), d.rule) ==
                a.rules.end())
                continue;
            a.used = true;
            suppressed = true;
        }
        if (suppressed)
            out.suppressed.push_back(std::move(d));
        else
            out.diags.push_back(std::move(d));
    }
    for (const AllowComment &a : allows) {
        if (a.used)
            continue;
        std::string rules;
        for (const std::string &r : a.rules)
            rules += (rules.empty() ? "" : ", ") + r;
        out.diags.push_back(
            {a.file, a.line, 1, "stale-allow",
             "remove dead allow: noc-lint:allow(" + rules +
                 ") suppresses nothing on this or the next line"});
    }
    std::sort(out.diags.begin(), out.diags.end(), diagLess);
    std::sort(out.suppressed.begin(), out.suppressed.end(), diagLess);
    return out;
}

RunResult
runPortable(const std::vector<std::string> &paths)
{
    Registry reg;
    std::vector<AllowComment> allows;
    std::vector<Diag> diags;
    std::map<std::string, std::vector<Token>> tokensOf;

    for (const std::string &p : paths) {
        std::string text;
        if (!readFile(p, text)) {
            diags.push_back({p, 1, 1, "read-error", "cannot read file"});
            continue;
        }
        tokensOf[p] = lex(text, p, allows);
    }
    for (const auto &[p, toks] : tokensOf)
        registerFile(p, toks, reg);
    for (const auto &[p, toks] : tokensOf) {
        Analyzer a{p, toks, reg, diags, {}, {}, {}, 0, {}};
        a.run();
    }
    return applySuppressions(std::move(diags), std::move(allows));
}

std::vector<std::string>
loadBaseline(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    if (!in)
        return lines;
    std::string line;
    while (std::getline(in, line)) {
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

BaselineCompare
compareBaseline(const std::vector<Diag> &diags,
                const std::vector<std::string> &baseline)
{
    std::vector<std::string> current;
    current.reserve(diags.size());
    for (const Diag &d : diags)
        current.push_back(formatDiag(d));
    std::sort(current.begin(), current.end());

    BaselineCompare out;
    std::set_difference(current.begin(), current.end(), baseline.begin(),
                        baseline.end(), std::back_inserter(out.fresh));
    std::set_difference(baseline.begin(), baseline.end(), current.begin(),
                        current.end(), std::back_inserter(out.fixed));
    std::set_intersection(current.begin(), current.end(), baseline.begin(),
                          baseline.end(),
                          std::back_inserter(out.matched));
    return out;
}

} // namespace noclint
