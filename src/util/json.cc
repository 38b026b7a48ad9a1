#include "util/json.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace tt::json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

double
Value::numberAt(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

std::string
Value::stringAt(const std::string &key,
                const std::string &fallback) const
{
    const Value *v = find(key);
    return v != nullptr && v->isString() ? v->string : fallback;
}

namespace {

/** Recursive-descent parser over a string view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value>
    parseDocument(std::string *error)
    {
        Value value;
        if (!parseValue(value) || (skipSpace(), pos_ != text_.size())) {
            if (error != nullptr) {
                if (error_.empty())
                    error_ = "trailing characters after document";
                *error = error_ + " at offset " + std::to_string(pos_);
            }
            return std::nullopt;
        }
        return value;
    }

  private:
    bool
    fail(const char *why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.substr(pos_, len) != word)
            return fail("unrecognised literal");
        pos_ += len;
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size()) {
            --depth_;
            return fail("unexpected end of input");
        }
        bool ok = false;
        switch (text_[pos_]) {
          case '{':
            ok = parseObject(out);
            break;
          case '[':
            ok = parseArray(out);
            break;
          case '"':
            out.kind = Value::Kind::String;
            ok = parseString(out.string);
            break;
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            ok = literal("true");
            break;
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            ok = literal("false");
            break;
          case 'n':
            out.kind = Value::Kind::Null;
            ok = literal("null");
            break;
          default:
            ok = parseNumber(out);
        }
        --depth_;
        return ok;
    }

    bool
    parseObject(Value &out)
    {
        out.kind = Value::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            Value value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &out)
    {
        out.kind = Value::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            Value value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(&code))
                    return false;
                appendUtf8(out, code);
                break;
              }
              default:
                return fail("bad escape in string");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseHex4(unsigned *code)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        *code = value;
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        // Surrogate pairs are not recombined -- the documents this
        // repo emits are ASCII; lone code points encode directly.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos_;
        consume('-'); // an optional sign
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("unexpected character");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        out.kind = Value::Kind::Number;
        out.number = value;
        return true;
    }

    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).parseDocument(error);
}

} // namespace tt::json
