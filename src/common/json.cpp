#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace bb {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  // std::to_chars produces the shortest round-trip form, independent of
  // locale — the same bits always print the same bytes, which the golden
  // hash test relies on.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kString ? v->string : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kNumber ? v->number : fallback;
}

bool JsonValue::get_u64(const std::string& key, std::uint64_t& out) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    out = 0;
    return true;
  }
  if (v->type != Type::kNumber || !v->is_exact_u64) return false;
  out = v->exact;
  return true;
}

namespace {

// Recursive-descent parser over a string_view cursor. Depth is bounded to
// keep hostile input from exhausting the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    const bool ok = parse_value(out, 0) && (skip_ws(), pos_ == text_.size());
    if (!ok && error) {
      *error = error_.empty() ? "malformed JSON" : error_;
      *error += " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  bool consume(char expect, const char* msg) {
    if (pos_ >= text_.size() || text_[pos_] != expect) return fail(msg);
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "expected string")) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not combined;
          // the emitter only \u-escapes control characters, which are BMP).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ ||
        pos_ == start) {
      return fail("bad number");
    }
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    // Digits only: also keep the exact value, which a double rounds above
    // 2^53. from_chars rejects (out of range) anything above 2^64-1.
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.find_first_not_of("0123456789") == std::string_view::npos) {
      const auto exact = std::from_chars(token.data(),
                                         token.data() + token.size(),
                                         out.exact);
      out.is_exact_u64 = exact.ec == std::errc{} &&
                         exact.ptr == token.data() + token.size();
    }
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        out.type = JsonValue::Type::kObject;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':', "expected ':'")) return false;
          JsonValue member;
          if (!parse_value(member, depth + 1)) return false;
          out.object[std::move(key)] = std::move(member);
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return consume('}', "expected '}'");
        }
      }
      case '[': {
        ++pos_;
        out.type = JsonValue::Type::kArray;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue elem;
          if (!parse_value(elem, depth + 1)) return false;
          out.array.push_back(std::move(elem));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return consume(']', "expected ']'");
        }
      }
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return JsonParser(text).parse(out, error);
}

}  // namespace bb
