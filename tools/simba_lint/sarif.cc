#include "sarif.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <string_view>

namespace simba::lint {
namespace {

constexpr const char* kSchemaUri =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json";

// One-line rule summaries for the driver.rules metadata (what GitHub
// shows as the check name tooltip).
const std::map<std::string, std::string>& rule_descriptions() {
  static const std::map<std::string, std::string> kDescriptions{
      {"layer", "Includes must point strictly down the layering DAG"},
      {"include", "Included header exports no name this file uses"},
      {"determinism",
       "Real clocks, ambient randomness, and unwaived unordered "
       "containers are banned in simulation code"},
      {"sync", "Raw std synchronisation primitives are banned outside "
               "util/"},
      {"bounded", "Queues on the alert path must name their bound"},
      {"trace", "Trace spans carry virtual time only"},
      {"alloc", "Trace/debug/info log messages must be built lazily"},
      {"label", "Events scheduled on the simulator must carry a literal "
                "label"},
      {"counters", "Counter names must resolve against "
                   "src/util/counter_registry.def"},
      {"waiver", "Waivers must still suppress a diagnostic"},
  };
  return kDescriptions;
}

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  append_escaped(out, text);
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for validate_sarif. Full grammar, no
// dependencies; numbers are kept as doubles (line numbers are small).
// ---------------------------------------------------------------------------
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    if (!value(out)) {
      error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    skip_space();
    if (pos_ != text_.size()) {
      error = "trailing content after JSON value";
      return false;
    }
    return true;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool literal(const char* word, JsonValue& out, JsonValue::Kind kind,
               bool boolean) {
    const std::size_t len = std::string_view(word).size();
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    out.kind = kind;
    out.boolean = boolean;
    return true;
  }

  bool string_token(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("truncated escape");
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
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            // Validation only needs well-formedness, not the code
            // point: keep the escape textually.
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool value(JsonValue& out) {
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') return literal("null", out, JsonValue::Kind::kNull, false);
    if (c == 't') return literal("true", out, JsonValue::Kind::kBool, true);
    if (c == 'f') return literal("false", out, JsonValue::Kind::kBool, false);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string_token(out.string);
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue element;
        if (!value(element)) return false;
        out.array.push_back(std::move(element));
        skip_space();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_space();
        std::string key;
        if (!string_token(key)) return false;
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        JsonValue element;
        if (!value(element)) return false;
        out.object.emplace(std::move(key), std::move(element));
        skip_space();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      if (text_[pos_] == '-') ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
      out.kind = JsonValue::Kind::kNumber;
      out.number = std::stod(text_.substr(start, pos_ - start));
      return true;
    }
    return fail("unexpected character");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

const JsonValue* require(const JsonValue* v, const char* key,
                         JsonValue::Kind kind, std::string& error,
                         const std::string& where) {
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    error = where + " is not an object";
    return nullptr;
  }
  const JsonValue* field = v->find(key);
  if (field == nullptr) {
    error = where + " is missing required property '" + key + "'";
    return nullptr;
  }
  if (field->kind != kind) {
    error = where + "." + key + " has the wrong type";
    return nullptr;
  }
  return field;
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diagnostics) {
  // Rule metadata: the distinct rule ids actually present, sorted.
  std::vector<std::string> rule_ids;
  for (const Diagnostic& d : diagnostics) rule_ids.push_back(d.rule);
  std::sort(rule_ids.begin(), rule_ids.end());
  rule_ids.erase(std::unique(rule_ids.begin(), rule_ids.end()),
                 rule_ids.end());

  std::string out;
  out += "{\n";
  out += "  \"$schema\": " + json_quote(kSchemaUri) + ",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"simba-lint\",\n";
  out += "          \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    const auto& descriptions = rule_descriptions();
    const auto it = descriptions.find(rule_ids[i]);
    const std::string description =
        it == descriptions.end() ? "simba-lint rule" : it->second;
    out += i == 0 ? "\n" : ",\n";
    out += "            { \"id\": " + json_quote(rule_ids[i]) +
           ", \"shortDescription\": { \"text\": " + json_quote(description) +
           " } }";
  }
  out += rule_ids.empty() ? "]\n" : "\n          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"results\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\n";
    out += "          \"ruleId\": " + json_quote(d.rule) + ",\n";
    out += std::string("          \"level\": ") +
           (d.severity == Severity::kError ? "\"error\"" : "\"warning\"") +
           ",\n";
    out += "          \"message\": { \"text\": " + json_quote(d.message) +
           " },\n";
    out += "          \"locations\": [\n";
    out += "            {\n";
    out += "              \"physicalLocation\": {\n";
    out += "                \"artifactLocation\": { \"uri\": " +
           json_quote(d.file) + " },\n";
    out += "                \"region\": { \"startLine\": " +
           std::to_string(d.line) + " }\n";
    out += "              }\n";
    out += "            }\n";
    out += "          ]\n";
    out += "        }";
  }
  out += diagnostics.empty() ? "]\n" : "\n      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string validate_sarif(const std::string& json) {
  JsonValue root;
  std::string error;
  JsonParser parser(json);
  if (!parser.parse(root, error)) return error;
  if (root.kind != JsonValue::Kind::kObject) return "top level is not an object";

  const JsonValue* schema =
      require(&root, "$schema", JsonValue::Kind::kString, error, "log");
  if (schema == nullptr) return error;
  if (schema->string.find("sarif") == std::string::npos) {
    return "$schema does not reference a SARIF schema";
  }
  const JsonValue* version =
      require(&root, "version", JsonValue::Kind::kString, error, "log");
  if (version == nullptr) return error;
  if (version->string != "2.1.0") return "version is not \"2.1.0\"";

  const JsonValue* runs =
      require(&root, "runs", JsonValue::Kind::kArray, error, "log");
  if (runs == nullptr) return error;
  if (runs->array.empty()) return "runs is empty";

  for (std::size_t r = 0; r < runs->array.size(); ++r) {
    const std::string where = "runs[" + std::to_string(r) + "]";
    const JsonValue& run = runs->array[r];
    const JsonValue* tool =
        require(&run, "tool", JsonValue::Kind::kObject, error, where);
    if (tool == nullptr) return error;
    const JsonValue* driver = require(tool, "driver", JsonValue::Kind::kObject,
                                      error, where + ".tool");
    if (driver == nullptr) return error;
    if (require(driver, "name", JsonValue::Kind::kString, error,
                where + ".tool.driver") == nullptr) {
      return error;
    }
    std::vector<std::string> declared_rules;
    if (const JsonValue* rules = driver->find("rules")) {
      if (rules->kind != JsonValue::Kind::kArray) {
        return where + ".tool.driver.rules is not an array";
      }
      for (const JsonValue& rule : rules->array) {
        const JsonValue* id = require(&rule, "id", JsonValue::Kind::kString,
                                      error, where + ".tool.driver.rules[]");
        if (id == nullptr) return error;
        declared_rules.push_back(id->string);
      }
    }
    const JsonValue* results =
        require(&run, "results", JsonValue::Kind::kArray, error, where);
    if (results == nullptr) return error;
    for (std::size_t i = 0; i < results->array.size(); ++i) {
      const std::string rwhere = where + ".results[" + std::to_string(i) + "]";
      const JsonValue& result = results->array[i];
      const JsonValue* rule_id =
          require(&result, "ruleId", JsonValue::Kind::kString, error, rwhere);
      if (rule_id == nullptr) return error;
      if (std::find(declared_rules.begin(), declared_rules.end(),
                    rule_id->string) == declared_rules.end()) {
        return rwhere + " uses undeclared ruleId '" + rule_id->string + "'";
      }
      const JsonValue* level =
          require(&result, "level", JsonValue::Kind::kString, error, rwhere);
      if (level == nullptr) return error;
      if (level->string != "error" && level->string != "warning" &&
          level->string != "note" && level->string != "none") {
        return rwhere + ".level '" + level->string + "' is not a SARIF level";
      }
      const JsonValue* message = require(&result, "message",
                                         JsonValue::Kind::kObject, error,
                                         rwhere);
      if (message == nullptr) return error;
      if (require(message, "text", JsonValue::Kind::kString, error,
                  rwhere + ".message") == nullptr) {
        return error;
      }
      const JsonValue* locations = require(&result, "locations",
                                           JsonValue::Kind::kArray, error,
                                           rwhere);
      if (locations == nullptr) return error;
      if (locations->array.empty()) return rwhere + ".locations is empty";
      for (const JsonValue& location : locations->array) {
        const JsonValue* physical =
            require(&location, "physicalLocation", JsonValue::Kind::kObject,
                    error, rwhere + ".locations[]");
        if (physical == nullptr) return error;
        const JsonValue* artifact = require(
            physical, "artifactLocation", JsonValue::Kind::kObject, error,
            rwhere + ".locations[].physicalLocation");
        if (artifact == nullptr) return error;
        if (require(artifact, "uri", JsonValue::Kind::kString, error,
                    rwhere + ".locations[].physicalLocation.artifactLocation")
            == nullptr) {
          return error;
        }
        const JsonValue* region = require(
            physical, "region", JsonValue::Kind::kObject, error,
            rwhere + ".locations[].physicalLocation");
        if (region == nullptr) return error;
        const JsonValue* start_line = require(
            region, "startLine", JsonValue::Kind::kNumber, error,
            rwhere + ".locations[].physicalLocation.region");
        if (start_line == nullptr) return error;
        if (start_line->number < 1) {
          return rwhere + " startLine must be >= 1";
        }
      }
    }
  }
  return "";
}

}  // namespace simba::lint
