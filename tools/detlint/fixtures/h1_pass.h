// H1 fixture: includes everything it names, so it compiles as the
// sole content of a translation unit.
#ifndef DETLINT_FIXTURES_H1_PASS_H
#define DETLINT_FIXTURES_H1_PASS_H

#include <vector>

inline std::vector<int>
h1Pass()
{
    return {1, 2, 3};
}

#endif // DETLINT_FIXTURES_H1_PASS_H
