#include "bbb/io/argparse.hpp"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace bbb::io {

ArgParser::ArgParser(std::string program_name, std::string description)
    : program_(std::move(program_name)), description_(std::move(description)) {}

void ArgParser::add(const std::string& key, Kind kind, std::string default_value,
                    const std::string& help_text) {
  if (flags_.contains(key)) {
    throw std::invalid_argument("ArgParser: duplicate flag --" + key);
  }
  flags_[key] = Flag{kind, default_value, std::move(default_value), help_text};
  order_.push_back(key);
}

void ArgParser::add_flag(const std::string& key, std::uint64_t default_value,
                         const std::string& help_text) {
  add(key, Kind::kU64, std::to_string(default_value), help_text);
}

void ArgParser::add_flag(const std::string& key, double default_value,
                         const std::string& help_text) {
  std::ostringstream os;
  os << default_value;
  add(key, Kind::kDouble, os.str(), help_text);
}

void ArgParser::add_flag(const std::string& key, const std::string& default_value,
                         const std::string& help_text) {
  add(key, Kind::kString, default_value, help_text);
}

ArgParser::Flag& ArgParser::find(const std::string& key) {
  const auto it = flags_.find(key);
  if (it == flags_.end()) throw std::invalid_argument("unknown flag --" + key);
  return it->second;
}

const ArgParser::Flag& ArgParser::find(const std::string& key) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) throw std::invalid_argument("unknown flag --" + key);
  return it->second;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string key, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag --" + key + " needs a value");
      }
      value = argv[++i];
    }
    Flag& flag = find(key);
    // Validate numeric formats eagerly so errors point at the flag.
    try {
      std::size_t pos = 0;
      if (flag.kind == Kind::kU64) {
        (void)std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument("trailing junk");
      } else if (flag.kind == Kind::kDouble) {
        (void)std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument("trailing junk");
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + key + ": bad value '" + value + "'");
    }
    flag.value = value;
  }
  return true;
}

std::uint64_t ArgParser::get_u64(const std::string& key) const {
  const Flag& f = find(key);
  if (f.kind != Kind::kU64) throw std::invalid_argument("--" + key + " is not integer");
  return std::stoull(f.value);
}

std::uint32_t ArgParser::get_u32(const std::string& key) const {
  const std::uint64_t value = get_u64(key);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("flag --" + key + ": value '" + find(key).value +
                                "' exceeds the 32-bit maximum " +
                                std::to_string(std::numeric_limits<std::uint32_t>::max()));
  }
  return static_cast<std::uint32_t>(value);
}

double ArgParser::get_double(const std::string& key) const {
  const Flag& f = find(key);
  if (f.kind == Kind::kString) {
    throw std::invalid_argument("--" + key + " is not numeric");
  }
  return std::stod(f.value);
}

const std::string& ArgParser::get_string(const std::string& key) const {
  const Flag& f = find(key);
  if (f.kind != Kind::kString) throw std::invalid_argument("--" + key + " is not string");
  return f.value;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& key : order_) {
    const Flag& f = flags_.at(key);
    const char* type = f.kind == Kind::kU64      ? "int"
                       : f.kind == Kind::kDouble ? "float"
                                                 : "str";
    os << "  --" << key << "=<" << type << ">  " << f.help << " (default: "
       << f.default_value << ")\n";
  }
  return os.str();
}

}  // namespace bbb::io
