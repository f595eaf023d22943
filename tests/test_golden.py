"""Byte-exact pins on traces, state graphs and check verdicts.

Each digest is a sha256 of CLI `simulate` output (text and JSON), of a
dump of every node of a model's state graph: FSM locations, variables,
enabled flags, port statuses (stale ones from the previous iteration
included, since they are part of state identity), queue summary, the
step kind taken out of the node, and its successor, or of CLI `check`
output and library `check_ltl` witness node ids.  Any change to the
engine that alters a trace, a graph, or the statuses ports are left
with shows up here, even when the verdicts built on top stay the same;
any change to the checker's search order shows up as a different
counterexample.

Regenerate a digest only for a deliberate change of semantics, and say
so where the change is recorded.
"""

import hashlib
import json

import pytest

from de_fixpoint import build_state_graph, check_ltl, initialize, parse_formula, parse_model
from de_fixpoint.cli import main
from de_fixpoint.model import iter_actors
from de_fixpoint.state import collect_variables, fsm_locations
from de_fixpoint.values import literal_text

from conftest import model_path

# A clock feeding three zero-delay hops into a wrapping counter.
CHAIN3 = """\
format 1

composite Chain {
  var laps = 0
  clock Clock {
    period = 1
    offset = 1
  }
  delay Hop0 {
    delay = 0
  }
  delay Hop1 {
    delay = 0
  }
  delay Hop2 {
    delay = 0
  }
  fsm Count {
    input Sec
    output Lap
    var count = 0
    initial run
    transition run -> run { guard isPresent(Sec) && count < 2 set count = count + 1 }
    transition run -> run { guard isPresent(Sec) && count == 2 output Lap = count set count = 0 }
  }
  setvar SetLaps {
    target = "laps"
  }
  connect Clock.output -> Hop0.input
  connect Hop0.output -> Hop1.input
  connect Hop1.output -> Hop2.input
  connect Hop2.output -> Count.Sec
  connect Count.Lap -> SetLaps.input
}
"""

# Modal actors nested two deep; refinement A of M0 holds M1, B idles.
NESTED2 = """\
format 1

composite Nested {
  var out = 0
  clock Clock {
    period = 1
  }
  modal M0 {
    input Sec
    output Out
    controller Ctrl
    refine a -> A
    refine b -> B
    fsm Ctrl {
      input Sec
      var count = 0
      initial a
      location b
      transition a -> a { guard isPresent(Sec) && count < 2 set count = count + 1 }
      transition a -> b { guard isPresent(Sec) && count == 2 set count = 0 }
      transition b -> b { guard isPresent(Sec) && count < 1 set count = count + 1 }
      transition b -> a { guard isPresent(Sec) && count == 1 set count = 0 }
    }
    composite A {
      input Sec
      output Out
      modal M1 {
        input Sec
        output Out
        controller Ctrl
        refine a -> A
        refine b -> B
        fsm Ctrl {
          input Sec
          var count = 0
          initial a
          location b
          transition a -> a { guard isPresent(Sec) && count < 1 set count = count + 1 }
          transition a -> b { guard isPresent(Sec) && count == 1 set count = 0 }
          transition b -> a { guard isPresent(Sec) }
        }
        composite A {
          input Sec
          output Out
          fsm Leaf {
            input Sec
            output Out
            initial on
            location off
            transition on -> off { guard isPresent(Sec) output Out = 1 }
            transition off -> on { guard isPresent(Sec) output Out = 0 }
          }
          connect parent.Sec -> Leaf.Sec
          connect Leaf.Out -> parent.Out
        }
        composite B {
          input Sec
          output Out
          fsm Idle {
            input Sec
            output Out
            initial idle
            transition idle -> idle { guard isPresent(Sec) output Out = 3 }
          }
          connect parent.Sec -> Idle.Sec
          connect Idle.Out -> parent.Out
        }
      }
      connect parent.Sec -> M1.Sec
      connect M1.Out -> parent.Out
    }
    composite B {
      input Sec
      output Out
      fsm Idle {
        input Sec
        output Out
        initial idle
        transition idle -> idle { guard isPresent(Sec) output Out = 2 }
      }
      connect parent.Sec -> Idle.Sec
      connect Idle.Out -> parent.Out
    }
  }
  setvar SetOut {
    target = "out"
  }
  connect Clock.output -> M0.Sec
  connect M0.Out -> SetOut.input
}
"""


def _crossing(i: int, period: int, offset: int) -> str:
    return f"""\
  clock Clock{i} {{
    period = {period}
    offset = {offset}
  }}
  fsm Car{i} {{
    input Sec
    output Go
    output Lamp
    output Stop
    initial red
    transition red -> ry {{ guard isPresent(Sec) output Stop = 1 }}
    transition ry -> green {{ guard isPresent(Sec) output Lamp = 1 }}
    transition green -> yellow {{ guard isPresent(Sec) output Lamp = 0 }}
    transition yellow -> red {{ guard isPresent(Sec) output Go = 1 }}
  }}
  fsm Ped{i} {{
    input Go
    input Stop
    output Walk
    initial stop
    transition stop -> walk {{ guard isPresent(Go) output Walk = 1 }}
    transition walk -> stop {{ guard isPresent(Stop) output Walk = 0 }}
  }}
  delay GoWire{i} {{
    delay = 0.5
  }}
  delay StopWire{i} {{
    delay = 0.5
  }}
  setvar SetC{i} {{
    target = "C{i}"
  }}
  setvar SetP{i} {{
    target = "P{i}"
  }}
  connect Clock{i}.output -> Car{i}.Sec
  connect Car{i}.Go -> GoWire{i}.input
  connect Car{i}.Stop -> StopWire{i}.input
  connect GoWire{i}.output -> Ped{i}.Go
  connect StopWire{i}.output -> Ped{i}.Stop
  connect Car{i}.Lamp -> SetC{i}.input
  connect Ped{i}.Walk -> SetP{i}.input
"""


# Two pedestrian crossings on coprime clock periods.
CROSSINGS = (
    "format 1\n\ncomposite Crossings {\n"
    "  var C0 = 0\n  var P0 = 0\n  var C1 = 0\n  var P1 = 0\n"
    + _crossing(0, 2, 0)
    + _crossing(1, 3, 1)
    + "}\n"
)

# name -> (model file or inline text, simulate bound, bottom-as-absent)
MODELS = {
    "flat": (model_path("flat_traffic_light.model"), "30", False),
    "hier": (model_path("hierarchical_traffic_light.model"), "45", False),
    "mutant": (model_path("hierarchical_traffic_light_mutant.model"), "45", False),
    "cycle": (model_path("causality_cycle.model"), "6", True),
    "chain3": (CHAIN3, "12", False),
    "nested2": (NESTED2, "20", False),
    "crossings": (CROSSINGS, "20", False),
}

# Recorded before the compiled fixed-point engine replaced the
# rebuild-per-iteration one.
SIMULATE_TEXT = {
    "flat": "a1bbbc01777098456353b9e3c4eca0e98abae522773494e3d9ffef1aecf04587",
    "hier": "653d8fbc262133cc6b49b8dbd80f8b115b90ca7184e5661cc141892084128e39",
    "mutant": "67ec2cf26ba466352b751fe0fe67fbf9e78b0d682282954bda584ba7addf4c14",
    "cycle": "349d1890b4212180fc2d24dad6d830c1b98294bb9f189359afd8a745055f6602",
    "chain3": "cd893f4217c2d5cfcefdf2449be3a52f36b04537e4e82ca5868d870831132926",
    "nested2": "5a318ce6b426a08c272416c356039d1295c8f3376845342c19b445aecac64054",
    "crossings": "0a59beb4177cf37da7f48cb1b53942b7a558f2f555dc02a0de24b8e5d1683d91",
}
SIMULATE_JSON = {
    "flat": "5993964be05d8f7640bd29e3038c7fd6d62f1be1f85b65d7961320194c0088ca",
    "hier": "bb3be1d6b26a42c8efad454ffb621e12e7918f03c1ea52a6af4d9dfbfa140071",
    "mutant": "a4ac040dc0ce19092972a8cb979d742e16f52f80ab380343b7b35b1d8efa94be",
    "cycle": "cf73f181fd5af13e2eb336f016463b42de4bf393c3f32fffed63b22ec9a907e4",
    "chain3": "d7621ec2aebb5794f712325f815530addcd51cc7bb09ec0cf8580381e91d716e",
    "nested2": "c3970a38466ad8d789780707026c3af8d916035686bea8bf4f49ff70ea498d95",
    "crossings": "7e0893496e01e0f4a9a764bd4a2bfd2662d4277fe3688bfd03ec547fad971785",
}
GRAPH = {
    "flat": "5343dfd980fa8f0f1e680c9ba501f159165bc6aee27c5cfaa53d1d179edf7cd7",
    "hier": "e7dd155a70d2d93a029f4ca57bcd7fe589e1c28fe603ca2af18833dae6e8e0d5",
    "mutant": "c56c057aa0e4cda6bf89b0953189563857e5778f5adfa41603c6c8e89056414f",
    "cycle": "b8c444cb6a8df419e7adf61b29864d09e5d3aad23feacf63f76093a9db6d8807",
    "chain3": "cefe8f57a0ca69fe3a11535ca242e7e8a2a3a6980a1663bc37fdc81013f18f54",
    "nested2": "86c25572b5a84ecf1b3de3ffe8343e60cfbaf9afefe87493459c4d1c9aa475f3",
    "crossings": "a7f6f59f1048fbe8fa71e5588cacfaec98bcef78e90d96eaadddfe2cb17c4240",
}


MUTUAL_EXCLUSION = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"

# name -> (model, formula, extra flags, exit code: 0 holds, 1 fails)
CHECKS = {
    "flat-holds": ("flat", "[] <> ('FlatTrafficLight | 'Cyel = 1)", (), 0),
    "flat-fails": ("flat", "<> [] ('FlatTrafficLight | 'Cred = 1)", (), 1),
    "flat-until-holds": ("flat", "<> [] ('FlatTrafficLight | 'Cred = 1)", ("--until", "2"), 0),
    "flat-until-fails": ("flat", "[] <> ('FlatTrafficLight | 'Cyel = 1)", ("--until", "2"), 1),
    "hier-holds": ("hier", MUTUAL_EXCLUSION, (), 0),
    "hier-fails": ("hier", "[] <> 'HierarchicalTrafficLight . 'Decision @ 'Dinit", (), 1),
    "hier-until-fails": (
        "hier",
        "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> <> 'HierarchicalTrafficLight . 'Decision @ 'Normal)",
        ("--until", "18"),
        1,
    ),
    "mutant-holds": ("mutant", "<> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal", (), 0),
    "mutant-fails": ("mutant", MUTUAL_EXCLUSION, (), 1),
    "cycle-holds": ("cycle", "[] ('FeedbackLoop . 'A @ 'S /\\ 'FeedbackLoop . 'B @ 'S)", ("--bottom-as-absent",), 0),
    "cycle-fails": ("cycle", "<> ~ 'FeedbackLoop . 'B @ 'S", ("--bottom-as-absent",), 1),
}

# Recorded before atom truth was computed once per graph (as are the
# witness pins below).
CHECK_TEXT = {
    "cycle-fails": "1286a8823fa9589245bb017f6461a7cb7e686f0bca91ad0454e07bb9d848be3f",
    "cycle-holds": "32ef2b7733764110bff0971aa9b4cd324ba6ef99ce87da1105d4c0793e81f29c",
    "flat-fails": "13285f89d6edf2f3f90feb7eb928bba10b95d8fb9b46a5d4ad44020d8262cc12",
    "flat-holds": "0b5ff1e100b982fc60a5ceb057776e82dcf9e05942dce45be88b6318b75e1815",
    "flat-until-fails": "c68c7b781211e4724d81773d1e61e41abfed75179a364581d501bf37ef066fd7",
    "flat-until-holds": "eec5f551cf46b6ee613de6a0276d708e70004cb9603495f5f8b053c9e2ca4301",
    "hier-fails": "315f661b8f97a9a26e2c308a9ec37670fe70d18d495ed9dc2be24c1434877fcf",
    "hier-holds": "e129082aae9e3b1f04dcebe4dcdeca800dd7fa99067bca652104b253964438b3",
    "hier-until-fails": "df8fd1095d5f8dc23c0258584b27ee9e4cf274bfb3bd7d60e362e9718dad4f73",
    "mutant-fails": "bbf25038cbcbf5ef96cabe2bd6b858fc5991c55d4e0deaf04b3a19238d23e4b6",
    "mutant-holds": "e129082aae9e3b1f04dcebe4dcdeca800dd7fa99067bca652104b253964438b3",
}

# Failing formulas on the mutant graph, all checked against one graph.
WITNESS_FORMULAS = [
    MUTUAL_EXCLUSION,
    "[] 'HierarchicalTrafficLight . 'Decision @ 'Normal",
    "<> [] ('HierarchicalTrafficLight | 'Cred = 1)",
    "[] ('HierarchicalTrafficLight | 'Pgrn = 1 -> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> 'HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))",
    "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> 'HierarchicalTrafficLight | 'Cred = 1)",
    "[] ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1) -> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    "[] ('HierarchicalTrafficLight | 'Pgrn = 1 -> ('HierarchicalTrafficLight | 'Pgrn = 1 U 'HierarchicalTrafficLight | 'Cred = 1))",
]
WITNESS_IDS = [
    "84de96253386a1e1a73a958d18b932aeb3436afdb3f4dc208ae37350cc01a977",
    "44e068b5cda6fba616f17f6278848b7257fd3e9a765dabfb4b96080315fde04b",
    "44e068b5cda6fba616f17f6278848b7257fd3e9a765dabfb4b96080315fde04b",
    "bca3dde9a861cdf37314e1758205a0c8ce43a184b5ac0e9f7c9a6dec6123edda",
    "eeafee41cc7c9f76b0b278ef41422bf75fdd7918b2890cbc643bfaf9e549071e",
    "84de96253386a1e1a73a958d18b932aeb3436afdb3f4dc208ae37350cc01a977",
    "804ea284ccbc5dede7050972036061db6a4fde9b5ffd8467464e2b302a8eaca8",
    "8378390f2e05f9cb1c39714865a87f89881c1f0c9ec23798d340b36431602ffa",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_file(name, tmp_path) -> str:
    source = MODELS[name][0]
    if "\n" not in source:
        return source
    path = tmp_path / f"{name}.model"
    path.write_text(source, encoding="utf-8")
    return str(path)


def _model_text(name) -> str:
    source = MODELS[name][0]
    if "\n" in source:
        return source
    with open(source, encoding="utf-8") as handle:
        return handle.read()


def simulate_output(name, fmt, tmp_path, capsys) -> str:
    _, until, bottom = MODELS[name]
    argv = ["simulate", _model_file(name, tmp_path), "--until", until, "--format", fmt]
    if bottom:
        argv.append("--bottom-as-absent")
    assert main(argv) == 0
    return capsys.readouterr().out


def check_output(name, tmp_path, capsys) -> str:
    model, formula, flags, code = CHECKS[name]
    argv = ["check", _model_file(model, tmp_path), "--formula", formula, *flags]
    assert main(argv) == code
    return capsys.readouterr().out


def witness_ids(graph, text) -> str:
    witness = check_ltl(graph, parse_formula(text)).witness
    return f"prefix={witness.prefix_ids} cycle={witness.cycle_ids}"


def graph_dump(name) -> str:
    bottom = MODELS[name][2]
    graph = build_state_graph(initialize(parse_model(_model_text(name))), bottom_as_absent=bottom)
    lines = []
    for i, state in enumerate(graph.nodes):
        lines.append(f"node {i} -> {graph.succ[i]} by {json.dumps(graph.kinds[i].json())}")
        lines.append(f"  locations {sorted(fsm_locations(state).items())}")
        for path, variables in sorted(collect_variables(state).items()):
            assigns = ", ".join(f"{k}={literal_text(v)}" for k, v in sorted(variables.items()))
            lines.append(f"  vars {path}: {assigns}")
        for path, node, live in iter_actors(state.top):
            ports = " ".join(f"{p.name}/{p.direction}={p.status!r}" for p in node.ports)
            lines.append(f"  {'.'.join(path)} enabled={node.enabled} live={live} {ports}")
        lines.append(f"  queue {state.queue.summary()}")
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("DE_FIXPOINT_COLOR", "0")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulate_text_is_pinned(name, tmp_path, capsys):
    assert _sha(simulate_output(name, "text", tmp_path, capsys)) == SIMULATE_TEXT[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulate_json_is_pinned(name, tmp_path, capsys):
    assert _sha(simulate_output(name, "json", tmp_path, capsys)) == SIMULATE_JSON[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_state_graph_is_pinned(name):
    assert _sha(graph_dump(name)) == GRAPH[name]


def test_fixture_graphs_keep_their_documented_sizes():
    sizes = {name: graph_dump(name).count("\nnode ") + 1 for name in ("flat", "hier")}
    assert sizes == {"flat": 25, "hier": 63}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_output_is_pinned(name, tmp_path, capsys):
    assert _sha(check_output(name, tmp_path, capsys)) == CHECK_TEXT[name]


def test_check_witnesses_are_pinned(mutant_graph):
    # One graph serves every check, as in a session of library calls.
    assert [_sha(witness_ids(mutant_graph, text)) for text in WITNESS_FORMULAS] == WITNESS_IDS
