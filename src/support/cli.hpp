// Minimal command-line flag parser for the example/bench executables.
//
// Supports "--name value", "--name=value" and boolean "--flag" forms
// plus positional arguments. Unknown flags raise ParseError so typos
// surface immediately instead of being silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace st {

class CliParser {
 public:
  /// Declares a flag with an optional default. A flag declared with
  /// `boolean=true` takes no value.
  void add_flag(std::string name, std::string description, std::optional<std::string> default_value,
                bool boolean = false);

  /// Parses argv. Throws ParseError on unknown flags or missing values.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text assembled from the declared flags.
  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  struct Flag {
    std::string description;
    std::optional<std::string> default_value;  ///< as declared; usage() prints it
    std::optional<std::string> value;          ///< default_value until parse() sets it
    bool boolean = false;
    bool is_set = false;
  };

  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace st
