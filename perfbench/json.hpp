// Minimal JSON reader for the daemon's responses. The bench parses what
// the program wrote with its own code, so a writer bug cannot be hidden by
// a matching reader bug. Numbers keep their text, so a bound can be
// compared bit for bit after strtod.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< number literal or string contents
  std::vector<Value> items;        ///< array elements, or object values
  std::vector<std::string> keys;  ///< object keys, aligned with items

  [[nodiscard]] const Value* get(const std::string& key) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) return &items[i];
    }
    return nullptr;
  }
  [[nodiscard]] std::optional<double> number(const std::string& key) const {
    const Value* v = get(key);
    if (v == nullptr || v->kind != Kind::kNumber) return std::nullopt;
    return std::strtod(v->text.c_str(), nullptr);
  }
  [[nodiscard]] std::string string(const std::string& key) const {
    const Value* v = get(key);
    return v != nullptr && v->kind == Kind::kString ? v->text : std::string();
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    const Value* v = get(key);
    return v != nullptr && v->kind == Kind::kBool && v->boolean;
  }
};

/// Parses one JSON document; nullopt on any syntax error.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<Value> parse() {
    Value v;
    if (!value(v)) return std::nullopt;
    skip();
    if (i_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool str(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (++i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          if (i_ + 4 >= s_.size()) return false;
          out += static_cast<char>(std::strtol(s_.substr(i_ + 1, 4).c_str(),
                                               nullptr, 16));
          i_ += 4;
        } else {
          out += e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        }
      } else {
        out += s_[i_];
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool value(Value& v) {
    skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      v.kind = Value::Kind::kObject;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      while (true) {
        skip();
        std::string key;
        if (!str(key)) return false;
        skip();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        v.keys.push_back(std::move(key));
        v.items.emplace_back();
        if (!value(v.items.back())) return false;
        skip();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        return false;
      }
    }
    if (c == '[') {
      v.kind = Value::Kind::kArray;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      while (true) {
        v.items.emplace_back();
        if (!value(v.items.back())) return false;
        skip();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
        return false;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      return str(v.text);
    }
    if (literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return true;
    }
    if (literal("false")) {
      v.kind = Value::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           std::string("+-0123456789.eE").find(s_[i_]) != std::string::npos) {
      ++i_;
    }
    if (i_ == start) return false;
    v.kind = Value::Kind::kNumber;
    v.text = s_.substr(start, i_ - start);
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

[[nodiscard]] inline std::optional<Value> parse(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace perfbench::json
