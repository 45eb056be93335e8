"""verify output recorded from the command line, frozen byte for byte.

Each key is (construction, n, --N, --chain); the instance is built by
`arithproj construct`.  The values were printed by the ladders that decided
every inequality on Fractions, before they kept integer terms, so the
integer verdicts must reproduce them exactly, exit codes and error text
included.  Example one fails the D hypothesis at N = 27 with --chain both
(its skew slice has 6^3 = 216 elements), so its 11/6 ladder is frozen with
--chain 6 as well.
"""

from __future__ import annotations

from typing import NamedTuple


class VerifyCase(NamedTuple):
    exit_code: int
    stderr: str
    # stdout of --output json, parsed, or None when nothing is printed
    json: dict | None
    # stdout lines of --output csv, each ended by "\r\n"
    csv: tuple[str, ...]
    # stdout lines of --output text, each ended by "\n"
    text: tuple[str, ...]


VERIFY_CASES = {
    ('example1', 3, '27', 'both'): VerifyCase(
        exit_code=3,
        stderr="error: hypotheses ['D'] fail for budget 27 (sizes {'A': 27, 'B': 27, 'C': 27, 'D': 216})\n",
        json=None,
        csv=(),
        text=(),
    ),
    ('example1', 3, '27', '6'): VerifyCase(
        exit_code=0,
        stderr='',
        json={'all_hold': True,
              'budget': 27,
              'chain-6': {'N': 27,
                          'all_hold': True,
                          'cardinalities': {'quads': 46656, 'relation': 216, 'wedges': 1728},
                          'inequalities': [{'holds': True,
                                            'lhs': {'den': 1, 'num': 1728},
                                            'name': 'wedge-count-lower',
                                            'rhs': {'den': 1, 'num': 1728},
                                            'slack': {'den': 1, 'num': 0}},
                                           {'holds': True,
                                            'lhs': {'den': 729, 'num': 16777216},
                                            'name': 'quad-count-lower-budget',
                                            'rhs': {'den': 1, 'num': 46656},
                                            'slack': {'den': 729, 'num': 17235008}},
                                           {'holds': True,
                                            'lhs': {'den': 729, 'num': 16777216},
                                            'name': 'quad-count-lower-exact',
                                            'rhs': {'den': 1, 'num': 46656},
                                            'slack': {'den': 729, 'num': 17235008}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 46656},
                                            'name': 'quad-count-upper',
                                            'rhs': {'den': 1, 'num': 1259712},
                                            'slack': {'den': 1, 'num': 1213056}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 5159780352},
                                            'name': 'wedge-count-upper',
                                            'rhs': {'den': 1, 'num': 282429536481},
                                            'slack': {'den': 1, 'num': 277269756129}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 101559956668416},
                                            'name': 'difference-count-upper',
                                            'rhs': {'den': 1, 'num': 5559060566555523},
                                            'slack': {'den': 1, 'num': 5457500609887107}}]}},
        csv=(
            'chain,inequality,lhs,rhs,holds',
            'chain-6,wedge-count-lower,1728/1,1728/1,True',
            'chain-6,quad-count-lower-budget,16777216/729,46656/1,True',
            'chain-6,quad-count-lower-exact,16777216/729,46656/1,True',
            'chain-6,quad-count-upper,46656/1,1259712/1,True',
            'chain-6,wedge-count-upper,5159780352/1,282429536481/1,True',
            'chain-6,difference-count-upper,101559956668416/1,5559060566555523/1,True',
        ),
        text=(
            'all_hold: True',
            'budget: 27',
            'chain-6:',
            '  N: 27',
            '  all_hold: True',
            '  cardinalities:',
            '    quads: 46656',
            '    relation: 216',
            '    wedges: 1728',
            '  inequalities: [{"holds": true, "lhs": {"den": 1, "num": 1728}, '
            '"name": "wedge-count-lower", "rhs": {"den": 1, "num": 1728}, '
            '"slack": {"den": 1, "num": 0}}, {"holds": true, "lhs": {"den": 729, '
            '"num": 16777216}, "name": "quad-count-lower-budget", "rhs": {"den": 1, '
            '"num": 46656}, "slack": {"den": 729, "num": 17235008}}, {"holds": true, '
            '"lhs": {"den": 729, "num": 16777216}, "name": "quad-count-lower-exact", '
            '"rhs": {"den": 1, "num": 46656}, "slack": {"den": 729, '
            '"num": 17235008}}, {"holds": true, "lhs": {"den": 1, "num": 46656}, '
            '"name": "quad-count-upper", "rhs": {"den": 1, "num": 1259712}, '
            '"slack": {"den": 1, "num": 1213056}}, {"holds": true, "lhs": {"den": 1, '
            '"num": 5159780352}, "name": "wedge-count-upper", "rhs": {"den": 1, '
            '"num": 282429536481}, "slack": {"den": 1, "num": 277269756129}}, '
            '{"holds": true, "lhs": {"den": 1, "num": 101559956668416}, '
            '"name": "difference-count-upper", "rhs": {"den": 1, '
            '"num": 5559060566555523}, "slack": {"den": 1, "num": 5457500609887107}}]',
        ),
    ),
    ('example2', 2, '16', 'both'): VerifyCase(
        exit_code=0,
        stderr='',
        json={'all_hold': True,
              'budget': 16,
              'chain-4': {'N': 16,
                          'all_hold': True,
                          'cardinalities': {'collisions': 900, 'relation': 64, 'wedges': 324},
                          'inequalities': [{'holds': True,
                                            'lhs': {'den': 16, 'num': 6561},
                                            'name': 'pair-count-lower-budget',
                                            'rhs': {'den': 1, 'num': 900},
                                            'slack': {'den': 16, 'num': 7839}},
                                           {'holds': True,
                                            'lhs': {'den': 16, 'num': 6561},
                                            'name': 'pair-count-lower-exact',
                                            'rhs': {'den': 1, 'num': 900},
                                            'slack': {'den': 16, 'num': 7839}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 900},
                                            'name': 'pair-count-upper',
                                            'rhs': {'den': 1, 'num': 4096},
                                            'slack': {'den': 1, 'num': 3196}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 104976},
                                            'name': 'wedge-count-upper',
                                            'rhs': {'den': 1, 'num': 1048576},
                                            'slack': {'den': 1, 'num': 943600}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 16777216},
                                            'name': 'difference-count-upper',
                                            'rhs': {'den': 1, 'num': 268435456},
                                            'slack': {'den': 1, 'num': 251658240}}]},
              'chain-6': {'N': 16,
                          'all_hold': True,
                          'cardinalities': {'quads': 9409, 'relation': 64, 'wedges': 324},
                          'inequalities': [{'holds': True,
                                            'lhs': {'den': 1, 'num': 256},
                                            'name': 'wedge-count-lower',
                                            'rhs': {'den': 1, 'num': 324},
                                            'slack': {'den': 1, 'num': 68}},
                                           {'holds': True,
                                            'lhs': {'den': 65536, 'num': 43046721},
                                            'name': 'quad-count-lower-budget',
                                            'rhs': {'den': 1, 'num': 9409},
                                            'slack': {'den': 65536, 'num': 573581503}},
                                           {'holds': True,
                                            'lhs': {'den': 65536, 'num': 43046721},
                                            'name': 'quad-count-lower-exact',
                                            'rhs': {'den': 1, 'num': 9409},
                                            'slack': {'den': 65536, 'num': 573581503}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 9409},
                                            'name': 'quad-count-upper',
                                            'rhs': {'den': 1, 'num': 82944},
                                            'slack': {'den': 1, 'num': 73535}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 34012224},
                                            'name': 'wedge-count-upper',
                                            'rhs': {'den': 1, 'num': 4294967296},
                                            'slack': {'den': 1, 'num': 4260955072}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 68719476736},
                                            'name': 'difference-count-upper',
                                            'rhs': {'den': 1, 'num': 17592186044416},
                                            'slack': {'den': 1, 'num': 17523466567680}}]}},
        csv=(
            'chain,inequality,lhs,rhs,holds',
            'chain-6,wedge-count-lower,256/1,324/1,True',
            'chain-6,quad-count-lower-budget,43046721/65536,9409/1,True',
            'chain-6,quad-count-lower-exact,43046721/65536,9409/1,True',
            'chain-6,quad-count-upper,9409/1,82944/1,True',
            'chain-6,wedge-count-upper,34012224/1,4294967296/1,True',
            'chain-6,difference-count-upper,68719476736/1,17592186044416/1,True',
            'chain-4,pair-count-lower-budget,6561/16,900/1,True',
            'chain-4,pair-count-lower-exact,6561/16,900/1,True',
            'chain-4,pair-count-upper,900/1,4096/1,True',
            'chain-4,wedge-count-upper,104976/1,1048576/1,True',
            'chain-4,difference-count-upper,16777216/1,268435456/1,True',
        ),
        text=(
            'all_hold: True',
            'budget: 16',
            'chain-4:',
            '  N: 16',
            '  all_hold: True',
            '  cardinalities:',
            '    collisions: 900',
            '    relation: 64',
            '    wedges: 324',
            '  inequalities: [{"holds": true, "lhs": {"den": 16, "num": 6561}, '
            '"name": "pair-count-lower-budget", "rhs": {"den": 1, "num": 900}, '
            '"slack": {"den": 16, "num": 7839}}, {"holds": true, "lhs": {"den": 16, '
            '"num": 6561}, "name": "pair-count-lower-exact", "rhs": {"den": 1, '
            '"num": 900}, "slack": {"den": 16, "num": 7839}}, {"holds": true, '
            '"lhs": {"den": 1, "num": 900}, "name": "pair-count-upper", '
            '"rhs": {"den": 1, "num": 4096}, "slack": {"den": 1, "num": 3196}}, '
            '{"holds": true, "lhs": {"den": 1, "num": 104976}, '
            '"name": "wedge-count-upper", "rhs": {"den": 1, "num": 1048576}, '
            '"slack": {"den": 1, "num": 943600}}, {"holds": true, "lhs": {"den": 1, '
            '"num": 16777216}, "name": "difference-count-upper", "rhs": {"den": 1, '
            '"num": 268435456}, "slack": {"den": 1, "num": 251658240}}]',
            'chain-6:',
            '  N: 16',
            '  all_hold: True',
            '  cardinalities:',
            '    quads: 9409',
            '    relation: 64',
            '    wedges: 324',
            '  inequalities: [{"holds": true, "lhs": {"den": 1, "num": 256}, '
            '"name": "wedge-count-lower", "rhs": {"den": 1, "num": 324}, '
            '"slack": {"den": 1, "num": 68}}, {"holds": true, "lhs": {"den": 65536, '
            '"num": 43046721}, "name": "quad-count-lower-budget", "rhs": {"den": 1, '
            '"num": 9409}, "slack": {"den": 65536, "num": 573581503}}, '
            '{"holds": true, "lhs": {"den": 65536, "num": 43046721}, '
            '"name": "quad-count-lower-exact", "rhs": {"den": 1, "num": 9409}, '
            '"slack": {"den": 65536, "num": 573581503}}, {"holds": true, '
            '"lhs": {"den": 1, "num": 9409}, "name": "quad-count-upper", '
            '"rhs": {"den": 1, "num": 82944}, "slack": {"den": 1, "num": 73535}}, '
            '{"holds": true, "lhs": {"den": 1, "num": 34012224}, '
            '"name": "wedge-count-upper", "rhs": {"den": 1, "num": 4294967296}, '
            '"slack": {"den": 1, "num": 4260955072}}, {"holds": true, '
            '"lhs": {"den": 1, "num": 68719476736}, '
            '"name": "difference-count-upper", "rhs": {"den": 1, '
            '"num": 17592186044416}, "slack": {"den": 1, "num": 17523466567680}}]',
        ),
    ),
    ('example2', 2, '200', 'both'): VerifyCase(
        exit_code=0,
        stderr='',
        json={'all_hold': True,
              'budget': 200,
              'chain-4': {'N': 200,
                          'all_hold': True,
                          'cardinalities': {'collisions': 900, 'relation': 64, 'wedges': 324},
                          'inequalities': [{'holds': True,
                                            'lhs': {'den': 2500, 'num': 6561},
                                            'name': 'pair-count-lower-budget',
                                            'rhs': {'den': 1, 'num': 900},
                                            'slack': {'den': 2500, 'num': 2243439}},
                                           {'holds': True,
                                            'lhs': {'den': 16, 'num': 6561},
                                            'name': 'pair-count-lower-exact',
                                            'rhs': {'den': 1, 'num': 900},
                                            'slack': {'den': 16, 'num': 7839}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 900},
                                            'name': 'pair-count-upper',
                                            'rhs': {'den': 1, 'num': 8000000},
                                            'slack': {'den': 1, 'num': 7999100}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 104976},
                                            'name': 'wedge-count-upper',
                                            'rhs': {'den': 1, 'num': 320000000000},
                                            'slack': {'den': 1, 'num': 319999895024}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 16777216},
                                            'name': 'difference-count-upper',
                                            'rhs': {'den': 1, 'num': 12800000000000000},
                                            'slack': {'den': 1, 'num': 12799999983222784}}]},
              'chain-6': {'N': 200,
                          'all_hold': True,
                          'cardinalities': {'quads': 9409, 'relation': 64, 'wedges': 324},
                          'inequalities': [{'holds': True,
                                            'lhs': {'den': 25, 'num': 512},
                                            'name': 'wedge-count-lower',
                                            'rhs': {'den': 1, 'num': 324},
                                            'slack': {'den': 25, 'num': 7588}},
                                           {'holds': True,
                                            'lhs': {'den': 250000000000, 'num': 43046721},
                                            'name': 'quad-count-lower-budget',
                                            'rhs': {'den': 1, 'num': 9409},
                                            'slack': {'den': 250000000000,
                                                      'num': 2352249956953279}},
                                           {'holds': True,
                                            'lhs': {'den': 65536, 'num': 43046721},
                                            'name': 'quad-count-lower-exact',
                                            'rhs': {'den': 1, 'num': 9409},
                                            'slack': {'den': 65536, 'num': 573581503}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 9409},
                                            'name': 'quad-count-upper',
                                            'rhs': {'den': 1, 'num': 12960000},
                                            'slack': {'den': 1, 'num': 12950591}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 34012224},
                                            'name': 'wedge-count-upper',
                                            'rhs': {'den': 1, 'num': 2560000000000000000},
                                            'slack': {'den': 1, 'num': 2559999999965987776}},
                                           {'holds': True,
                                            'lhs': {'den': 1, 'num': 68719476736},
                                            'name': 'difference-count-upper',
                                            'rhs': {'den': 1, 'num': 20480000000000000000000000},
                                            'slack': {'den': 1,
                                                      'num': 20479999999999931280523264}}]}},
        csv=(
            'chain,inequality,lhs,rhs,holds',
            'chain-6,wedge-count-lower,512/25,324/1,True',
            'chain-6,quad-count-lower-budget,43046721/250000000000,9409/1,True',
            'chain-6,quad-count-lower-exact,43046721/65536,9409/1,True',
            'chain-6,quad-count-upper,9409/1,12960000/1,True',
            'chain-6,wedge-count-upper,34012224/1,2560000000000000000/1,True',
            'chain-6,difference-count-upper,68719476736/1,20480000000000000000000000/1,True',
            'chain-4,pair-count-lower-budget,6561/2500,900/1,True',
            'chain-4,pair-count-lower-exact,6561/16,900/1,True',
            'chain-4,pair-count-upper,900/1,8000000/1,True',
            'chain-4,wedge-count-upper,104976/1,320000000000/1,True',
            'chain-4,difference-count-upper,16777216/1,12800000000000000/1,True',
        ),
        text=(
            'all_hold: True',
            'budget: 200',
            'chain-4:',
            '  N: 200',
            '  all_hold: True',
            '  cardinalities:',
            '    collisions: 900',
            '    relation: 64',
            '    wedges: 324',
            '  inequalities: [{"holds": true, "lhs": {"den": 2500, "num": 6561}, '
            '"name": "pair-count-lower-budget", "rhs": {"den": 1, "num": 900}, '
            '"slack": {"den": 2500, "num": 2243439}}, {"holds": true, '
            '"lhs": {"den": 16, "num": 6561}, "name": "pair-count-lower-exact", '
            '"rhs": {"den": 1, "num": 900}, "slack": {"den": 16, "num": 7839}}, '
            '{"holds": true, "lhs": {"den": 1, "num": 900}, '
            '"name": "pair-count-upper", "rhs": {"den": 1, "num": 8000000}, '
            '"slack": {"den": 1, "num": 7999100}}, {"holds": true, "lhs": {"den": 1, '
            '"num": 104976}, "name": "wedge-count-upper", "rhs": {"den": 1, '
            '"num": 320000000000}, "slack": {"den": 1, "num": 319999895024}}, '
            '{"holds": true, "lhs": {"den": 1, "num": 16777216}, '
            '"name": "difference-count-upper", "rhs": {"den": 1, '
            '"num": 12800000000000000}, "slack": {"den": 1, '
            '"num": 12799999983222784}}]',
            'chain-6:',
            '  N: 200',
            '  all_hold: True',
            '  cardinalities:',
            '    quads: 9409',
            '    relation: 64',
            '    wedges: 324',
            '  inequalities: [{"holds": true, "lhs": {"den": 25, "num": 512}, '
            '"name": "wedge-count-lower", "rhs": {"den": 1, "num": 324}, '
            '"slack": {"den": 25, "num": 7588}}, {"holds": true, '
            '"lhs": {"den": 250000000000, "num": 43046721}, '
            '"name": "quad-count-lower-budget", "rhs": {"den": 1, "num": 9409}, '
            '"slack": {"den": 250000000000, "num": 2352249956953279}}, '
            '{"holds": true, "lhs": {"den": 65536, "num": 43046721}, '
            '"name": "quad-count-lower-exact", "rhs": {"den": 1, "num": 9409}, '
            '"slack": {"den": 65536, "num": 573581503}}, {"holds": true, '
            '"lhs": {"den": 1, "num": 9409}, "name": "quad-count-upper", '
            '"rhs": {"den": 1, "num": 12960000}, "slack": {"den": 1, '
            '"num": 12950591}}, {"holds": true, "lhs": {"den": 1, "num": 34012224}, '
            '"name": "wedge-count-upper", "rhs": {"den": 1, '
            '"num": 2560000000000000000}, "slack": {"den": 1, '
            '"num": 2559999999965987776}}, {"holds": true, "lhs": {"den": 1, '
            '"num": 68719476736}, "name": "difference-count-upper", '
            '"rhs": {"den": 1, "num": 20480000000000000000000000}, '
            '"slack": {"den": 1, "num": 20479999999999931280523264}}]',
        ),
    ),
}
