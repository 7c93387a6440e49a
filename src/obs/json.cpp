#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ph::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Value& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error != nullptr) {
        *error = message_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing data at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        out.kind = Value::Kind::string;
        return parse_string(out.string);
      }
      case 't':
        if (!consume_word("true")) return fail("bad literal");
        out.kind = Value::Kind::boolean;
        out.boolean = true;
        return true;
      case 'f':
        if (!consume_word("false")) return fail("bad literal");
        out.kind = Value::Kind::boolean;
        out.boolean = false;
        return true;
      case 'n':
        if (!consume_word("null")) return fail("bad literal");
        out.kind = Value::Kind::null;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    ++pos_;  // '{'
    out.kind = Value::Kind::object;
    out.object = std::make_shared<Object>();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      (*out.object)[std::move(key)] = std::move(value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    ++pos_;  // '['
    out.kind = Value::Kind::array;
    out.array = std::make_shared<Array>();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.array->push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
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
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            // Pass the escape through verbatim; good enough for metric names.
            out += "\\u";
            out += text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default: return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.kind = Value::Kind::number;
    out.number = value;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string message_;
};

}  // namespace

bool parse(std::string_view text, Value& out, std::string* error) {
  return Parser(text).parse(out, error);
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out += buf;
}

namespace {

void serialize_into(std::string& out, const Value& value) {
  switch (value.kind) {
    case Value::Kind::null: out += "null"; break;
    case Value::Kind::boolean: out += value.boolean ? "true" : "false"; break;
    case Value::Kind::number: append_number(out, value.number); break;
    case Value::Kind::string: append_escaped(out, value.string); break;
    case Value::Kind::array: {
      out += '[';
      bool first = true;
      for (const Value& item : *value.array) {
        if (!first) out += ',';
        first = false;
        serialize_into(out, item);
      }
      out += ']';
      break;
    }
    case Value::Kind::object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : *value.object) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        serialize_into(out, member);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string serialize(const Value& value) {
  std::string out;
  out.reserve(1024);
  serialize_into(out, value);
  return out;
}

}  // namespace ph::obs::json
