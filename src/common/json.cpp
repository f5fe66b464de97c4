#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <iomanip>

namespace fairswap {

JsonWriter::JsonWriter(std::ostream& out) : out_(&out) {
  *out_ << std::setprecision(10);
}

void JsonWriter::open(const char* key) {
  item(key);
  *out_ << '{';
  fresh_ = true;
}

void JsonWriter::close() {
  *out_ << '}';
  fresh_ = false;
}

void JsonWriter::open_list(const char* key) {
  item(key);
  *out_ << '[';
  fresh_ = true;
}

void JsonWriter::close_list() {
  *out_ << ']';
  fresh_ = false;
}

void JsonWriter::field(const char* key, double v) {
  item(key);
  *out_ << v;
}

void JsonWriter::field(const char* key, bool v) {
  item(key);
  *out_ << (v ? "true" : "false");
}

void JsonWriter::field(const char* key, const std::string& v) {
  item(key);
  *out_ << '"' << escape(v) << '"';
}

void JsonWriter::field(const char* key, const char* v) {
  field(key, std::string(v));
}

void JsonWriter::element(const std::string& v) {
  item(nullptr);
  *out_ << '"' << escape(v) << '"';
}

void JsonWriter::element(double v) {
  item(nullptr);
  *out_ << v;
}

void JsonWriter::item(const char* key) {
  if (!fresh_) *out_ << ',';
  fresh_ = false;
  if (key) *out_ << '"' << escape(key) << "\":";
}

std::string JsonWriter::escape(const std::string& s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue kNull{};
  if (kind != Kind::kObject) return kNull;
  const auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

namespace {

/// Recursive-descent parser over a string; `at` is the cursor.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (at_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_) *error_ = msg + " at offset " + std::to_string(at_);
    return false;
  }

  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  [[nodiscard]] bool peek(char c) const {
    return at_ < text_.size() && text_[at_] == c;
  }

  bool expect(char c) {
    if (!peek(c)) return fail(std::string("expected '") + c + "'");
    ++at_;
    return true;
  }

  bool literal(const char* word, JsonValue& out, JsonValue::Kind kind,
               bool boolean) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(at_, len, word) != 0) return fail("bad literal");
    at_ += len;
    out.kind = kind;
    out.boolean = boolean;
    return true;
  }

  bool string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (at_ < text_.size()) {
      const char c = text_[at_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_ >= text_.size()) return fail("truncated escape");
        const char e = text_[at_++];
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
            if (at_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[at_++];
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
            // The writer only emits \u for C0 controls; decode BMP code
            // points as UTF-8 so round-trips are lossless for our output.
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
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = at_;
    if (peek('-')) ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + at_, v);
    if (ec != std::errc{} || ptr != text_.data() + at_) {
      return fail("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  bool value(JsonValue& out) {
    if (at_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[at_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        ++depth_;
        const bool ok = text_[at_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"': {
        out.kind = JsonValue::Kind::kString;
        return string(out.string);
      }
      case 't': return literal("true", out, JsonValue::Kind::kBool, true);
      case 'f': return literal("false", out, JsonValue::Kind::kBool, false);
      case 'n': return literal("null", out, JsonValue::Kind::kNull, false);
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    ++at_;
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek('}')) { ++at_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      // A repeated name would leave the reader to pick one of two values.
      if (!out.object.try_emplace(std::move(key), std::move(member)).second) {
        return fail("duplicate member name");
      }
      skip_ws();
      if (peek(',')) { ++at_; continue; }
      return expect('}');
    }
  }

  bool array(JsonValue& out) {
    ++at_;
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek(']')) { ++at_; return true; }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (peek(',')) { ++at_; continue; }
      return expect(']');
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t at_{0};
  std::size_t depth_{0};  ///< arrays and objects currently open
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return Parser(text, error).parse(out);
}

}  // namespace fairswap
