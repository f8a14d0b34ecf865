// Fixture: naked new/delete outside src/support.  Checked under the
// synthetic path src/spec/fixture.cpp.
struct Node {
  int value = 0;
};

int leak_prone() {
  Node* n = new Node;  // line 8: naked new
  const int v = n->value;
  delete n;  // line 10: naked delete
  return v;
}
