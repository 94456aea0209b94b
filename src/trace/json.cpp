#include "trace/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pgraph::trace::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  // %.17g round-trips doubles; trim the common integer case for size.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

const Value& Value::operator[](const std::string& key) const {
  static const Value null_value;
  if (kind_ != Kind::Object) return null_value;
  const auto it = obj_.find(key);
  return it == obj_.end() ? null_value : it->second;
}

bool Value::has(const std::string& key) const {
  return kind_ == Kind::Object && obj_.count(key) > 0;
}

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : s_(text), err_(err) {}

  bool run(Value& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters");
    return true;
  }

 private:
  /// Deepest array/object nesting read.  The exporters nest at most 5
  /// deep; the cap keeps a hostile document from exhausting the stack.
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    if (err_ != nullptr)
      *err_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  void skip_ws() {
    while (peek(' ') || peek('\t') || peek('\n') || peek('\r')) ++pos_;
  }

  bool value(Value& out, int depth) {
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) return fail("nesting deeper than 64");
      return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
    }
    if (c == '"') {
      out.kind_ = Value::Kind::String;
      return string(out.str_);
    }
    if (c == 't' || c == 'f') return boolean(out);
    if (c == 'n') return null(out);
    return num(out);
  }

  bool object(Value& out, int depth) {
    out.kind_ = Value::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!peek('"') || !string(key)) return fail("expected object key");
      skip_ws();
      if (!peek(':')) return fail("expected ':'");
      ++pos_;
      skip_ws();
      Value v;
      if (!value(v, depth)) return false;
      out.obj_.insert_or_assign(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value& out, int depth) {
    out.kind_ = Value::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Value v;
      if (!value(v, depth)) return false;
      out.arr_.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_]);
      if (c < 0x20) return fail("control character in string");
      if (c >= 0x80) {
        if (!utf8(out)) return fail("invalid UTF-8 in string");
        continue;
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= s_.size()) return fail("bad escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
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
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          if (!hex4(code)) return false;
          // A high surrogate escape followed by a low one is one code
          // point; a lone surrogate is kept as is, as Python keeps it.
          const std::size_t next = pos_;
          if (code >= 0xD800 && code < 0xDC00 &&
              s_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            if (!hex4(low)) return false;
            if (low >= 0xDC00 && low < 0xE000)
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            else
              pos_ = next;  // the next escape stands on its own
          }
          put_utf8(out, code);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// Four hex digits of a \u escape.
  bool hex4(unsigned& code) {
    if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
    for (int k = 0; k < 4; ++k) {
      const char h = s_[pos_];
      code <<= 4;
      if (h >= '0' && h <= '9')
        code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        code += static_cast<unsigned>(h - 'A' + 10);
      else
        return fail("bad \\u digit");
      ++pos_;
    }
    return true;
  }

  static void put_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  /// Copy one raw multi-byte UTF-8 sequence, refusing what a strict
  /// decoder refuses: stray continuation bytes, overlong forms, encoded
  /// surrogates and code points past U+10FFFF.  On failure `pos_` stays
  /// on the sequence's first byte.
  bool utf8(std::string& out) {
    const auto lead = static_cast<unsigned char>(s_[pos_]);
    std::size_t len = 0;
    unsigned char lo = 0x80, hi = 0xBF;  // range of the second byte
    if (lead >= 0xC2 && lead <= 0xDF) {
      len = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      len = 3;
      if (lead == 0xE0) lo = 0xA0;
      if (lead == 0xED) hi = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      len = 4;
      if (lead == 0xF0) lo = 0x90;
      if (lead == 0xF4) hi = 0x8F;
    }
    if (len == 0 || pos_ + len > s_.size()) return false;
    for (std::size_t k = 1; k < len; ++k) {
      const auto b = static_cast<unsigned char>(s_[pos_ + k]);
      if (b < (k == 1 ? lo : 0x80) || b > (k == 1 ? hi : 0xBF)) return false;
    }
    out.append(s_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool boolean(Value& out) {
    out.kind_ = Value::Kind::Bool;
    if (s_.substr(pos_, 4) == "true") {
      out.num_ = 1.0;
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      out.num_ = 0.0;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool null(Value& out) {
    out.kind_ = Value::Kind::Null;
    if (s_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool num(Value& out) {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    if (peek('-')) ++pos_;
    if (peek('0'))
      ++pos_;  // no leading zeros: "01" ends after the 0
    else if (!digits())
      return fail("expected number");
    if (peek('.')) {
      ++pos_;
      if (!digits()) return fail("expected fraction digit");
    }
    if (peek('e') || peek('E')) {
      ++pos_;
      if (peek('-') || peek('+')) ++pos_;
      if (!digits()) return fail("expected exponent digit");
    }
    out.kind_ = Value::Kind::Number;
    out.num_ = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string* err_;
};

bool parse(std::string_view text, Value& out, std::string* err) {
  return Parser(text, err).run(out);
}

}  // namespace pgraph::trace::json
