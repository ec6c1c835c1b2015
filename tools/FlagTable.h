//===- tools/FlagTable.h - Usage tables of the tools ------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --help table of thistle-opt and thistle-serve: one row per flag the
/// parser accepts (tool.usage fails on a parsed flag without a row).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_TOOLS_FLAGTABLE_H
#define THISTLE_TOOLS_FLAGTABLE_H

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>

namespace thistle {

struct FlagSpec {
  const char *Flag; ///< "--layer".
  const char *Arg;  ///< Value metavar, "" for boolean flags.
  const char *Help; ///< Description; '\n' separates continuation lines.
};

struct FlagGroup {
  const char *Title;
  const FlagSpec *Flags;
  std::size_t Count;
};

/// Prints "usage: PROG [options]" and every group's rows, the help text
/// starting in one column.
template <std::size_t N>
void printFlagTable(const char *Prog, const FlagGroup (&Groups)[N]) {
  std::printf("usage: %s [options]\n", Prog);
  constexpr std::size_t HelpColumn = 32;
  for (const FlagGroup &Group : Groups) {
    std::printf("\n%s\n", Group.Title);
    for (std::size_t F = 0; F < Group.Count; ++F) {
      const FlagSpec &Spec = Group.Flags[F];
      std::string Head = std::string("  ") + Spec.Flag;
      if (Spec.Arg[0])
        Head += std::string(" ") + Spec.Arg;
      // Long heads get their own line; the help starts in one column.
      bool HeadAlone = Head.size() + 2 > HelpColumn;
      if (HeadAlone)
        std::printf("%s\n", Head.c_str());
      const char *Line = Spec.Help;
      bool First = !HeadAlone;
      while (*Line) {
        const char *End = std::strchr(Line, '\n');
        std::size_t Len = End ? static_cast<std::size_t>(End - Line)
                              : std::strlen(Line);
        std::printf("%-*s%.*s\n", static_cast<int>(HelpColumn),
                    First ? Head.c_str() : "", static_cast<int>(Len), Line);
        First = false;
        Line += Len + (End ? 1 : 0);
      }
    }
  }
}

} // namespace thistle

#endif // THISTLE_TOOLS_FLAGTABLE_H
