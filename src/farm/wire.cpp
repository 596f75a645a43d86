#include "farm/wire.h"

#include <cctype>

#include "common/config.h"

namespace noc::farm {

namespace {

void
skipWs(const std::string &s, std::size_t &i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
}

bool
parseJsonString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c == '\\') {
            if (i >= s.size())
                return false;
            char e = s[i++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            default: return false; // \uXXXX etc: protocol never sends it
            }
        } else {
            out += c;
        }
    }
    if (i >= s.size())
        return false;
    ++i; // closing quote
    return true;
}

} // namespace

std::optional<FlatJson>
FlatJson::parse(const std::string &ln)
{
    FlatJson out;
    std::size_t i = 0;
    skipWs(ln, i);
    if (i >= ln.size() || ln[i] != '{')
        return std::nullopt;
    ++i;
    skipWs(ln, i);
    if (i < ln.size() && ln[i] == '}') {
        ++i;
        skipWs(ln, i);
        return i == ln.size() ? std::optional<FlatJson>(out) : std::nullopt;
    }
    for (;;) {
        skipWs(ln, i);
        Entry e;
        if (!parseJsonString(ln, i, e.key))
            return std::nullopt;
        skipWs(ln, i);
        if (i >= ln.size() || ln[i] != ':')
            return std::nullopt;
        ++i;
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == '"') {
            if (!parseJsonString(ln, i, e.value))
                return std::nullopt;
            e.isString = true;
        } else if (ln[i] == '{' || ln[i] == '[') {
            return std::nullopt; // flat protocol only
        } else {
            // Number / true / false / null: take the literal token.
            std::size_t start = i;
            while (i < ln.size() && ln[i] != ',' && ln[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(ln[i])))
                ++i;
            e.value = ln.substr(start, i - start);
            if (e.value.empty())
                return std::nullopt;
        }
        out.entries_.push_back(std::move(e));
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == ',') {
            ++i;
            continue;
        }
        if (ln[i] == '}') {
            ++i;
            skipWs(ln, i);
            return i == ln.size() ? std::optional<FlatJson>(out)
                                  : std::nullopt;
        }
        return std::nullopt;
    }
}

std::string
FlatJson::str(const std::string &key) const
{
    for (const Entry &e : entries_)
        if (e.key == key)
            return e.isString ? e.value : std::string();
    return {};
}

template <typename T>
std::optional<T>
FlatJson::num(const std::string &key) const
{
    for (const Entry &e : entries_)
        if (e.key == key)
            return e.isString ? std::nullopt : parseNumber<T>(e.value);
    return std::nullopt;
}

template std::optional<int> FlatJson::num<int>(const std::string &) const;
template std::optional<std::uint64_t>
    FlatJson::num<std::uint64_t>(const std::string &) const;
template std::optional<double>
    FlatJson::num<double>(const std::string &) const;

} // namespace noc::farm
