// JSON for the observability subsystem: the deterministic writer, and the
// one JSON tokenizer in src/ with the readers built on it.
//
// The exported metric snapshots and traces double as regression oracles:
// two runs with the same seed must produce byte-identical output. That
// rules out iteration over unordered containers, locale-dependent or
// precision-lossy number formatting, and wall-clock timestamps. JsonWriter
// gives the caller full control of key order and formats numbers with
// std::to_chars (shortest round-trip form), so equal inputs serialize to
// equal bytes on a given toolchain.
//
// Reading goes through JsonLexer, the only JSON tokenizer in src/ (and the
// only place string escapes are decoded). parse_json() builds a JsonValue
// tree on it; parse_trace_jsonl() (obs/trace.hpp) reads each trace line
// with it into a TraceEvent, interning every string from its view into the
// line, which is the hot reader.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace vmstorm::obs {

/// Appends the JSON escaping of `s` (without surrounding quotes) to *out.
void json_escape(std::string_view s, std::string* out);

/// Appends the shortest round-trip decimal form of `v` to *out; non-finite
/// values render as "null" (metrics should never produce them, but a crash
/// in the exporter would be worse than a null cell).
void json_append_number(double v, std::string* out);
void json_append_number(std::uint64_t v, std::string* out);
void json_append_number(std::int64_t v, std::string* out);

/// json_append_number() into a fresh string.
std::string json_number(double v);
std::string json_number(std::uint64_t v);
std::string json_number(std::int64_t v);

/// Streaming JSON writer with explicit structure calls. Commas and quoting
/// are handled; nesting is tracked so misuse asserts in debug builds.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or begin_object/begin_array.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Appends pre-serialized JSON (e.g. a nested snapshot) verbatim.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void element();  // comma bookkeeping before a value/opening bracket

  std::string out_;
  std::vector<bool> first_;  // per open scope: no element emitted yet
  bool after_key_ = false;
};

/// Tokenizer over one JSON text. Every read skips leading whitespace first;
/// a failed read returns an invalid_argument status naming the byte offset
/// where it stopped.
class JsonLexer {
 public:
  /// A number token. A plain non-negative integer token that fits also
  /// gives its exact value, so ids above 2^53 survive the double.
  struct Number {
    double value = 0;
    std::uint64_t uint = 0;  ///< exact value when is_uint, else 0
    bool is_uint = false;
  };

  explicit JsonLexer(std::string_view text) : text_(text) {}

  /// The next non-whitespace byte, not consumed; '\0' at the end.
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  /// Consumes `c` when it is the next non-whitespace byte.
  bool consume(char c) {
    skip_ws();
    if (pos_ == text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  /// Consumes the literal `word` (true, false, null) when it comes next.
  bool consume_word(std::string_view word);
  /// True when nothing but whitespace is left.
  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

  /// Reads a string token into *out (replacing its contents), decoding
  /// escapes; \u escapes are UTF-8 encoded (BMP only).
  Status read_string(std::string* out);
  /// Reads a string token without copying it: *out views its bytes in the
  /// text, or, when it holds an escape, *scratch, which then holds the
  /// decoded string as read_string(std::string*) gives it.
  Status read_string(std::string_view* out, std::string* scratch);
  Status read_number(Number* out);

  Status fail(std::string_view what) const;

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parsed JSON document node. The read-side complement of JsonWriter, used
/// to load artifacts back (vmstormctl engine-stats over BENCH_engine.json).
/// Object members keep source order; lookup is linear — artifacts are small.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors return the natural zero value on kind mismatch, so
  /// renderers can chase optional paths without branching at every level.
  bool as_bool() const { return is_bool() && flag_; }
  double as_number() const { return is_number() ? number_ : 0.0; }
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const Members& members() const;

  /// Object member by key, nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Chained find: find(k) with a null-object fallback, so
  /// v["overhead"]["arms"] never dereferences null.
  const JsonValue& operator[](std::string_view key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(Members members);

 private:
  Kind kind_ = Kind::kNull;
  bool flag_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::shared_ptr<Members> members_;  // shared_ptr: JsonValue stays copyable
                                      // without recursive value layout issues
};

/// Reads one value at the lexer's position (nesting bounded to 64 levels).
/// Also how a streaming reader skips a value it has no use for.
Result<JsonValue> read_json_value(JsonLexer& lexer);

/// Strict recursive-descent parse of a complete JSON document (no trailing
/// garbage, no comments, bounded nesting depth).
Result<JsonValue> parse_json(std::string_view text);

}  // namespace vmstorm::obs
