#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace arda::json {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos, what.c_str()));
  }

  bool Consume(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    char c = Peek();
    switch (c) {
      case 'n':
        if (Consume("null")) return Value::MakeNull();
        return Error("bad literal");
      case 't':
        if (Consume("true")) return Value::MakeBool(true);
        return Error("bad literal");
      case 'f':
        if (Consume("false")) return Value::MakeBool(false);
        return Error("bad literal");
      case '"':
        return ParseString();
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseString() {
    ++pos;  // opening quote
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text[pos++];
      if (c == '"') return Value::MakeString(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t code = 0;
          ARDA_RETURN_IF_ERROR(ParseHex4(&code));
          // Surrogate pair -> one code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!Consume("\\u")) return Error("unpaired high surrogate");
            uint32_t low = 0;
            ARDA_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos + 4 > text.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text[pos++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<Value> ParseNumber() {
    const size_t start = pos;
    if (!AtEnd() && Peek() == '-') ++pos;
    bool integral = true;
    auto digits = [&] {
      size_t before = pos;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos;
      return pos > before;
    };
    const size_t int_start = pos;
    if (!digits()) return Error("bad number");
    // RFC 8259 int: zero / (digit1-9 *DIGIT) — no leading zeros.
    if (pos - int_start > 1 && text[int_start] == '0') {
      return Error("bad number: leading zero");
    }
    if (!AtEnd() && Peek() == '.') {
      integral = false;
      ++pos;
      if (!digits()) return Error("bad number: missing fraction digits");
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      ++pos;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
      if (!digits()) return Error("bad number: missing exponent digits");
    }
    std::string_view token = text.substr(start, pos - start);
    if (integral) {
      int64_t i = 0;
      if (ParseInt64(token, &i)) return Value::MakeInt(i);
      // Out-of-int64-range integer literals fall through to double.
    }
    double d = 0.0;
    // ParseDouble rejects a leading '+' and hex floats, which JSON also
    // forbids; the grammar scan above already guarantees the shape.
    if (!ParseDouble(token, &d)) {
      return Error("number out of range: " + std::string(token));
    }
    return Value::MakeNumber(d);
  }

  Result<Value> ParseArray(int depth) {
    ++pos;  // '['
    std::vector<Value> items;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos;
      return Value::MakeArray(std::move(items));
    }
    while (true) {
      ARDA_ASSIGN_OR_RETURN(Value item, ParseValue(depth + 1));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      char c = text[pos++];
      if (c == ']') return Value::MakeArray(std::move(items));
      if (c != ',') return Error("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseObject(int depth) {
    ++pos;  // '{'
    std::map<std::string, Value> members;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos;
      return Value::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      ARDA_ASSIGN_OR_RETURN(Value key, ParseString());
      SkipWhitespace();
      if (AtEnd() || text[pos++] != ':') return Error("expected ':'");
      ARDA_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      members[key.AsString()] = std::move(value);
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      char c = text[pos++];
      if (c == '}') return Value::MakeObject(std::move(members));
      if (c != ',') return Error("expected ',' or '}' in object");
    }
  }
};

void SerializeTo(const Value& value, std::string* out) {
  switch (value.kind()) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case Kind::kNumber:
      if (value.IsExactInt64()) {
        *out += StrFormat("%lld",
                          static_cast<long long>(value.AsInt64()));
      } else {
        *out += StrFormat("%.17g", value.AsDouble());
      }
      return;
    case Kind::kString:
      *out += '"';
      *out += JsonEscape(value.AsString());
      *out += '"';
      return;
    case Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const Value& item : value.AsArray()) {
        if (!first) *out += ',';
        first = false;
        SerializeTo(item, out);
      }
      *out += ']';
      return;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : value.AsObject()) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += JsonEscape(key);
        *out += "\":";
        SerializeTo(member, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string Value::StringOr(std::string_view key,
                            std::string fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::move(fallback);
}

double Value::NumberOr(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

std::optional<int64_t> Value::ToInt64() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  if (exact_int_) return int_;
  // [-2^63, 2^63) holds exactly the doubles that convert to int64 without
  // overflow; both bounds are exact doubles. NaN fails every comparison.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(number_ >= -kTwoTo63 && number_ < kTwoTo63)) return std::nullopt;
  if (std::trunc(number_) != number_) return std::nullopt;
  return static_cast<int64_t>(number_);
}

int64_t Value::IntOr(std::string_view key, int64_t fallback) const {
  const Value* v = Find(key);
  if (v == nullptr) return fallback;
  return v->ToInt64().value_or(fallback);
}

bool Value::BoolOr(std::string_view key, bool fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

Value Value::MakeNull() { return Value(); }

Value Value::MakeBool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::MakeNumber(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::MakeInt(int64_t i) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(i);
  v.int_ = i;
  v.exact_int_ = true;
  return v;
}

Value Value::MakeString(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::MakeArray(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::MakeObject(std::map<std::string, Value> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Result<Value> Parse(std::string_view text) {
  Parser parser{text};
  ARDA_ASSIGN_OR_RETURN(Value value, parser.ParseValue(0));
  parser.SkipWhitespace();
  if (!parser.AtEnd()) {
    return parser.Error("trailing characters after document");
  }
  return value;
}

std::string Serialize(const Value& value) {
  std::string out;
  SerializeTo(value, &out);
  return out;
}

}  // namespace arda::json
