#include "support/cli.hpp"

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st {

void CliParser::add_flag(std::string name, std::string description,
                         std::optional<std::string> default_value, bool boolean) {
  Flag f;
  f.description = std::move(description);
  f.default_value = std::move(default_value);
  f.value = f.default_value;
  f.boolean = boolean;
  flags_.emplace(std::move(name), std::move(f));
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      inline_value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) throw ParseError("unknown flag --" + name);
    Flag& f = it->second;
    f.is_set = true;
    if (f.boolean) {
      if (inline_value) throw ParseError("flag --" + name + " takes no value");
      f.value = "true";
    } else if (inline_value) {
      f.value = std::move(*inline_value);
    } else {
      if (i + 1 >= argc) throw ParseError("flag --" + name + " requires a value");
      f.value = argv[++i];
    }
  }
}

bool CliParser::has(std::string_view name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.is_set;
}

std::string CliParser::get(std::string_view name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) throw LogicError("flag not declared: " + std::string(name));
  if (!it->second.value) throw ParseError("flag --" + std::string(name) + " was not provided");
  return *it->second.value;
}

std::int64_t CliParser::get_int(std::string_view name) const {
  const auto v = parse_i64(get(name));
  if (!v) throw ParseError("flag --" + std::string(name) + " is not an integer");
  return *v;
}

double CliParser::get_double(std::string_view name) const {
  const auto v = parse_f64(get(name));
  if (!v) throw ParseError("flag --" + std::string(name) + " is not a number");
  return *v;
}

bool CliParser::get_bool(std::string_view name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) throw LogicError("flag not declared: " + std::string(name));
  return it->second.value.value_or("false") == "true";
}

std::string CliParser::usage(std::string_view program) const {
  std::string out = "usage: " + std::string(program) + " [flags]\n";
  for (const auto& [name, f] : flags_) {
    out += "  --" + name;
    if (!f.boolean) out += " <value>";
    out += "  " + f.description;
    if (f.default_value && !f.boolean) out += " (default: " + *f.default_value + ")";
    out += "\n";
  }
  return out;
}

}  // namespace st
