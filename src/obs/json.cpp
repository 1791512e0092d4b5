#include "obs/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vmstorm::obs {

void json_escape(std::string_view s, std::string* out) {
  // Copy each run of bytes that need no escape in one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

namespace {

/// std::to_chars into a stack buffer, then one append. For a double that
/// is the shortest form that reads back to the same value.
template <typename Number>
void append_chars(Number v, std::string* out) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  out->append(buf, end);
}

template <typename Number>
std::string number_string(Number v) {
  std::string s;
  json_append_number(v, &s);
  return s;
}

}  // namespace

void json_append_number(double v, std::string* out) {
  if (std::isfinite(v)) {
    append_chars(v, out);
  } else {
    *out += "null";
  }
}

void json_append_number(std::uint64_t v, std::string* out) {
  append_chars(v, out);
}

void json_append_number(std::int64_t v, std::string* out) {
  append_chars(v, out);
}

std::string json_number(double v) { return number_string(v); }
std::string json_number(std::uint64_t v) { return number_string(v); }
std::string json_number(std::int64_t v) { return number_string(v); }

void JsonWriter::element() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  element();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  element();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!after_key_);
  element();
  out_ += '"';
  json_escape(k, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  element();
  out_ += '"';
  json_escape(s, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  element();
  json_append_number(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element();
  json_append_number(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element();
  json_append_number(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  element();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  element();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  element();
  out_ += json;
  return *this;
}

// ---- JsonValue ------------------------------------------------------------

namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyItems;
const JsonValue::Members kEmptyMembers;
const JsonValue kNullValue;

}  // namespace

const std::string& JsonValue::as_string() const {
  return is_string() ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::items() const {
  return is_array() ? items_ : kEmptyItems;
}

const JsonValue::Members& JsonValue::members() const {
  return is_object() && members_ ? *members_ : kEmptyMembers;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object() || !members_) return nullptr;
  for (const auto& [k, v] : *members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullValue;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.flag_ = b;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Members members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::make_shared<Members>(std::move(members));
  return v;
}

// ---- JsonLexer ------------------------------------------------------------

Status JsonLexer::fail(std::string_view what) const {
  return invalid_argument("json parse error at byte " + std::to_string(pos_) +
                          ": " + std::string(what));
}

bool JsonLexer::consume_word(std::string_view word) {
  skip_ws();
  if (text_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

Status JsonLexer::read_string(std::string* out) {
  if (!consume('"')) return fail("expected string");
  out->clear();
  while (true) {
    // Copy the run of plain bytes up to the next quote, escape or control
    // character in one append.
    std::size_t run = pos_;
    while (run < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[run]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++run;
    }
    out->append(text_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ == text_.size()) return fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return Status::ok();
    }
    if (c != '\\') return fail("unescaped control character in string");
    ++pos_;
    if (pos_ == text_.size()) return fail("truncated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("invalid \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs unsupported —
        // the writer only ever emits \u00XX control escapes).
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xc0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          *out += static_cast<char>(0xe0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          *out += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default: return fail("invalid escape character");
    }
  }
}

Status JsonLexer::read_string(std::string_view* out, std::string* scratch) {
  if (!consume('"')) return fail("expected string");
  std::size_t run = pos_;
  while (run < text_.size()) {
    const auto c = static_cast<unsigned char>(text_[run]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++run;
  }
  if (run < text_.size() && text_[run] == '"') {
    *out = text_.substr(pos_, run - pos_);
    pos_ = run + 1;
    return Status::ok();
  }
  // An escape, or an error to report: decode from the opening quote.
  --pos_;
  VMSTORM_RETURN_IF_ERROR(read_string(scratch));
  *out = *scratch;
  return Status::ok();
}

Status JsonLexer::read_number(Number* out) {
  skip_ws();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool digits_only = pos_ == start;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      digits_only = false;
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return fail("expected a value");
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  *out = Number{};
  if (digits_only &&
      std::from_chars(first, last, out->uint).ec == std::errc()) {
    // Correctly rounded, as from_chars on the same digits would give.
    out->value = static_cast<double>(out->uint);
    out->is_uint = true;
    return Status::ok();
  }
  // Anything else, including an integer wider than 64 bits, is a double.
  const auto [end, ec] = std::from_chars(first, last, out->value);
  if (ec != std::errc() || end != last) return fail("malformed number");
  return Status::ok();
}

// ---- parse_json -----------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

Result<JsonValue> read_value(JsonLexer& lx, int depth) {
  if (depth > kMaxDepth) return lx.fail("nesting too deep");
  switch (lx.peek()) {
    case '{': {
      lx.consume('{');
      JsonValue::Members members;
      if (lx.consume('}')) return JsonValue::make_object(std::move(members));
      do {
        std::string key;
        VMSTORM_RETURN_IF_ERROR(lx.read_string(&key));
        if (!lx.consume(':')) return lx.fail("expected ':' after key");
        VMSTORM_ASSIGN_OR_RETURN(v, read_value(lx, depth + 1));
        members.emplace_back(std::move(key), std::move(v));
      } while (lx.consume(','));
      if (!lx.consume('}')) return lx.fail("expected ',' or '}' in object");
      return JsonValue::make_object(std::move(members));
    }
    case '[': {
      lx.consume('[');
      std::vector<JsonValue> items;
      if (lx.consume(']')) return JsonValue::make_array(std::move(items));
      do {
        VMSTORM_ASSIGN_OR_RETURN(v, read_value(lx, depth + 1));
        items.push_back(std::move(v));
      } while (lx.consume(','));
      if (!lx.consume(']')) return lx.fail("expected ',' or ']' in array");
      return JsonValue::make_array(std::move(items));
    }
    case '"': {
      std::string s;
      VMSTORM_RETURN_IF_ERROR(lx.read_string(&s));
      return JsonValue::make_string(std::move(s));
    }
    default: break;
  }
  if (lx.consume_word("true")) return JsonValue::make_bool(true);
  if (lx.consume_word("false")) return JsonValue::make_bool(false);
  if (lx.consume_word("null")) return JsonValue::make_null();
  JsonLexer::Number n;
  VMSTORM_RETURN_IF_ERROR(lx.read_number(&n));
  return JsonValue::make_number(n.value);
}

}  // namespace

Result<JsonValue> read_json_value(JsonLexer& lexer) {
  return read_value(lexer, 0);
}

Result<JsonValue> parse_json(std::string_view text) {
  JsonLexer lx(text);
  VMSTORM_ASSIGN_OR_RETURN(v, read_value(lx, 0));
  if (!lx.at_end()) return lx.fail("trailing characters after document");
  return v;
}

}  // namespace vmstorm::obs
