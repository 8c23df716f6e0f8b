// H1 fixture: names std::vector without including <vector>, so it
// compiles only after some other header has pulled that in.
#ifndef DETLINT_FIXTURES_H1_FAIL_H
#define DETLINT_FIXTURES_H1_FAIL_H

inline std::vector<int>
h1Fail()
{
    return {1, 2, 3};
}

#endif // DETLINT_FIXTURES_H1_FAIL_H
