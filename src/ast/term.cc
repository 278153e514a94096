#include "ast/term.h"

#include <cctype>
#include <string>

namespace semopt {

namespace {

/// True when `name` lexes back as a plain identifier (lowercase start,
/// identifier characters after).
bool IsPlainSymbol(const std::string& name) {
  if (name.empty() || !std::islower(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kVariable:
      return name();
    case TermKind::kSymConst: {
      // Symbols that would not lex as identifiers print quoted so the
      // output round-trips through the parser.
      const std::string& text = name();
      return IsPlainSymbol(text) ? text : "'" + text + "'";
    }
    case TermKind::kIntConst:
      return std::to_string(payload_);
  }
  return "<bad term>";
}

std::ostream& operator<<(std::ostream& os, const Term& term) {
  return os << term.ToString();
}

}  // namespace semopt
