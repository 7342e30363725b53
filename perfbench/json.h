// A minimal JSON reader for the two documents the benchmark consumes: the
// server's METRICS snapshot and the engine's query-profile JSON. Both are
// produced by this repository, so the reader accepts exactly standard JSON
// and reports malformed input by returning false instead of guessing.

#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member lookup; nullptr when this is not an object or lacks `key`.
  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  /// Numeric member, or `fallback` when absent or not a number.
  double Number(const std::string& key, double fallback = 0) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  /// Parses the whole text into `out`; false on any syntax error.
  bool Parse(JsonValue* out) {
    if (!Value(out)) return false;
    Space();
    return pos_ == s_.size();
  }

 private:
  void Space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Names and labels here are ASCII; keep the escape's low byte.
            if (pos_ + 4 > s_.size()) return false;
            c = static_cast<char>(
                std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16) & 0x7f);
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool Value(JsonValue* out) {
    Space();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = JsonValue::Kind::kObject;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      while (true) {
        Space();
        std::string key;
        if (!String(&key)) return false;
        Space();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&out->object[key])) return false;
        Space();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == '}') return ++pos_, true;
        if (s_[pos_++] != ',') return false;
      }
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
        Space();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ']') return ++pos_, true;
        if (s_[pos_++] != ',') return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true") || Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
