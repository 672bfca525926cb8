"""Known-bad FL006: trees built behind their constructors' backs."""


def restore_tree(tree_cls, root, next_node_id):
    tree = tree_cls.__new__(tree_cls)
    tree._root = root
    tree._next_node_id = next_node_id
    return tree


def clone(vbtree):
    new = vbtree.__class__.__new__(vbtree.__class__)
    new.__dict__.update(vbtree.__dict__)
    return new


class Replica:
    def copy(self):
        return object.__new__(Replica)
